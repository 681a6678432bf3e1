package vmap

import (
	"testing"
	"testing/quick"
)

func TestTranslateStable(t *testing.T) {
	m := NewMapper(8 * SuperBytes)
	a := m.Translate(0, 0x1234)
	b := m.Translate(0, 0x1234)
	if a != b {
		t.Fatal("translation must be stable")
	}
	if a%PageBytes != 0x234 {
		t.Errorf("page offset not preserved: %x", a)
	}
}

func TestDistinctSpacesDistinctFrames(t *testing.T) {
	m := NewMapper(8 * SuperBytes)
	a := m.Translate(0, 0)
	b := m.Translate(1, 0)
	if a == b {
		t.Error("different address spaces must get different superblocks")
	}
	if m.MappedBlocks() != 2 {
		t.Errorf("blocks = %d", m.MappedBlocks())
	}
}

func TestSuperblockContiguity(t *testing.T) {
	m := NewMapper(8 * SuperBytes)
	// All addresses within one superblock stay physically contiguous
	// (relative offsets preserved), so mod-32MB structure survives.
	base := m.Translate(0, 0)
	for off := uint64(PageBytes); off < SuperBytes; off += 16 << 20 {
		p := m.Translate(0, off)
		if p != base+off {
			t.Fatalf("offset %x: got %x, want %x", off, p, base+off)
		}
	}
}

func TestAllocationsSpreadAcrossMemory(t *testing.T) {
	// 64 superblocks; allocating 16 must cover a wide range of the
	// physical space (steady-state clock spread), not pack low.
	m := NewMapper(64 * SuperBytes)
	var min, max uint64 = 1 << 62, 0
	for i := 0; i < 16; i++ {
		p := m.Translate(0, uint64(i)*SuperBytes)
		if p < min {
			min = p
		}
		if p > max {
			max = p
		}
	}
	if span := max - min; span < uint64(32*SuperBytes) {
		t.Errorf("allocations span only %d bytes of the space", span)
	}
}

func TestNoDoubleAssignmentBeforeWrap(t *testing.T) {
	m := NewMapper(64 * SuperBytes)
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		p := m.Translate(0, uint64(i)*SuperBytes) / SuperBytes
		if seen[p] {
			t.Fatalf("superblock %d assigned twice before exhaustion", p)
		}
		seen[p] = true
	}
}

func TestWraparoundReuses(t *testing.T) {
	m := NewMapper(4 * SuperBytes)
	f := func(v uint8) bool {
		p := m.Translate(1, uint64(v)*SuperBytes)
		return p < 4*SuperBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestOffsetsWithinPage(t *testing.T) {
	m := NewMapper(2 * SuperBytes)
	f := func(page uint16, off uint16) bool {
		v := uint64(page)*PageBytes + uint64(off)%PageBytes
		p := m.Translate(2, v)
		return p%PageBytes == v%PageBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestASIDBounds is the regression test for the key-packing collision:
// before bounds validation, asid = 1<<24 silently keyed identically to
// asid = 0 (the shifted bits fell off the top of the uint64), merging two
// address spaces into one mapping.
func TestASIDBounds(t *testing.T) {
	m := NewMapper(8 << 30)

	if err := CheckASID(0); err != nil {
		t.Fatalf("CheckASID(0): %v", err)
	}
	if err := CheckASID(MaxASID); err != nil {
		t.Fatalf("CheckASID(MaxASID): %v", err)
	}
	for _, asid := range []int{-1, MaxASID + 1, MaxASID * 2} {
		if err := CheckASID(asid); err == nil {
			t.Errorf("CheckASID(%d): want error, got nil", asid)
		}
		if _, err := m.TranslateChecked(asid, 0); err == nil {
			t.Errorf("TranslateChecked(%d, 0): want error, got nil", asid)
		}
	}

	// The collision itself: the overflowing asid must NOT share asid 0's
	// physical placement (it must be rejected, not aliased).
	p0 := m.Translate(0, 0x1234)
	if p1, err := m.TranslateChecked(MaxASID+1, 0x1234); err == nil && p1 == p0 {
		t.Fatalf("asid %d aliased asid 0 at phys %#x", MaxASID+1, p0)
	}

	defer func() {
		if recover() == nil {
			t.Fatalf("Translate with out-of-range asid did not panic")
		}
	}()
	m.Translate(MaxASID+1, 0)
}

// TestOwnership checks the per-superblock owner attribution used by the
// multi-tenant experiments.
func TestOwnership(t *testing.T) {
	m := NewMapper(8 << 30)

	pa := m.Translate(1, 0)
	pb := m.Translate(2, 0)
	pc := m.Translate(2, SuperBytes) // second block of asid 2

	if asid, ok := m.OwnerOf(pa); !ok || asid != 1 {
		t.Errorf("OwnerOf(%#x) = %d,%v want 1,true", pa, asid, ok)
	}
	if asid, ok := m.OwnerOf(pb + 123); !ok || asid != 2 {
		t.Errorf("OwnerOf(%#x) = %d,%v want 2,true", pb+123, asid, ok)
	}
	if len(m.BlocksOf(1)) != 1 || len(m.BlocksOf(2)) != 2 {
		t.Errorf("BlocksOf: got %d,%d blocks want 1,2", len(m.BlocksOf(1)), len(m.BlocksOf(2)))
	}
	blocks := m.BlocksOf(2)
	if want := []uint64{pb / SuperBytes, pc / SuperBytes}; blocks[0] == blocks[1] ||
		(blocks[0] != want[0] && blocks[0] != want[1]) {
		t.Errorf("BlocksOf(2) = %v inconsistent with translations %v", blocks, want)
	}

	// Repeated touches do not reassign ownership.
	m.Translate(1, 100)
	if asid, _ := m.OwnerOf(pa); asid != 1 {
		t.Errorf("ownership changed on repeat touch: %d", asid)
	}
	// Untouched physical space has no owner.
	for block := uint64(0); block < m.totalSuper; block++ {
		if _, used := m.used[block]; !used {
			if _, ok := m.OwnerOf(block * SuperBytes); ok {
				t.Fatalf("free block %d has an owner", block)
			}
			break
		}
	}
}

// TestMemoMatchesMap drives interleaved address spaces whose memo slots
// collide (asids 16 apart) through a mapper and checks every translation
// against a reference mapper whose memo is cleared before each lookup:
// the memo must never return another space's or another superblock's
// placement.
func TestMemoMatchesMap(t *testing.T) {
	warm, ref := NewMapper(32<<30), NewMapper(32<<30)
	asids := []int{0, 1, memoSlots, memoSlots + 1, 3 * memoSlots}
	for i := 0; i < 4000; i++ {
		asid := asids[(i*7)%len(asids)]
		vaddr := uint64(i%5)*SuperBytes + uint64(i*4096)%SuperBytes
		got := warm.Translate(asid, vaddr)
		ref.memo = [memoSlots]memoEntry{} // ref always takes the map path
		if want := ref.Translate(asid, vaddr); got != want {
			t.Fatalf("step %d asid %d vaddr %#x: memo path %#x, map path %#x", i, asid, vaddr, got, want)
		}
	}
	if warm.MappedBlocks() != ref.MappedBlocks() {
		t.Errorf("mapped blocks %d vs %d", warm.MappedBlocks(), ref.MappedBlocks())
	}
}
