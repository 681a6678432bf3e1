package mem

import "mirza/internal/dram"

// schedWindow is the incremental per-bank summary of a sub-channel's
// FR-FCFS scheduling window, the first WindowDepth entries of the queue
// (DESIGN.md §19). pass() decides from it instead of re-reading every
// queued entry: two bank sets say which banks have a window entry and
// which have a pending row hit, and each bank keeps its window entries in
// age order plus its oldest hit.
//
// The summary changes at exactly four events, each of which updates it:
// an entry joins the window (submit, or a dequeue that pulls queue entry
// WindowDepth-1 in), an entry leaves it (dequeue), and the bank's open
// row changes (activate finds the bank's oldest hit, precharge clears
// it).
//
// A pending row conflict needs no set of its own: the scheduler only asks
// about conflicts on open banks without a pending hit, and there every
// window entry is a conflict, so "conflict" is present &^ hit on open
// banks.
type schedWindow struct {
	// pool holds the window entries, WindowDepth slots allocated once.
	// A slot is either on one bank's age-ordered list or on the free list,
	// both linked through winSlot.next.
	pool  []winSlot
	free  int32
	banks []winBank

	// present: banks with a window entry. hit: open banks with a window
	// entry for the open row.
	present, hit dram.BankSet
}

// winSlot is one window entry.
type winSlot struct {
	req  *Request
	seq  int64 // req.enqueue, the FR-FCFS age, kept beside the link
	row  int32
	next int32 // next younger entry on the bank (or next free slot); -1 ends
}

// winBank is one bank's part of the window.
type winBank struct {
	head, tail int32 // oldest and youngest entry; -1 when none
	hit        int32 // oldest entry for the open row; -1 when none
	hitSeq     int64 // its enqueue sequence
}

func newSchedWindow(depth, banks int) schedWindow {
	w := schedWindow{
		pool:    make([]winSlot, depth),
		banks:   make([]winBank, banks),
		present: dram.NewBankSet(banks),
		hit:     dram.NewBankSet(banks),
	}
	for i := range w.pool {
		w.pool[i].next = int32(i + 1)
	}
	w.pool[depth-1].next = -1
	for b := range w.banks {
		w.banks[b] = winBank{head: -1, tail: -1, hit: -1}
	}
	return w
}

// add appends r, the youngest window entry, to its bank; openRow is the
// bank's open row (-1 when closed).
func (w *schedWindow) add(r *Request, openRow int32) {
	b, row := r.addr.Bank, int32(r.addr.Row)
	i := w.free
	sl := &w.pool[i]
	w.free = sl.next
	sl.req, sl.seq, sl.row, sl.next = r, r.enqueue, row, -1
	bk := &w.banks[b]
	if bk.head < 0 {
		bk.head = i
		w.present.Set(b)
	} else {
		w.pool[bk.tail].next = i
	}
	bk.tail = i
	if row == openRow && bk.hit < 0 {
		bk.hit, bk.hitSeq = i, r.enqueue
		w.hit.Set(b)
	}
}

// removeHit drops bank b's oldest hit, the entry a column command just
// served, and finds the bank's next-oldest hit.
func (w *schedWindow) removeHit(b int, openRow int32) {
	pool := w.pool
	bk := &w.banks[b]
	i := bk.hit
	prev := int32(-1)
	for j := bk.head; j != i; j = pool[j].next {
		prev = j
	}
	next := pool[i].next
	if prev < 0 {
		bk.head = next
	} else {
		pool[prev].next = next
	}
	if bk.tail == i {
		bk.tail = prev
	}
	pool[i].req = nil
	pool[i].next = w.free
	w.free = i
	if bk.head < 0 {
		w.present.Clear(b)
	}
	w.findHit(b, next, openRow)
}

// opened finds bank b's oldest hit after an ACT opened openRow.
func (w *schedWindow) opened(b int, openRow int32) {
	w.findHit(b, w.banks[b].head, openRow)
}

// closed clears bank b's hit after a precharge.
func (w *schedWindow) closed(b int) {
	w.banks[b].hit = -1
	w.hit.Clear(b)
}

// findHit sets bank b's oldest hit to the first entry for openRow on
// its list from slot j on, or to none.
func (w *schedWindow) findHit(b int, j, openRow int32) {
	bk := &w.banks[b]
	for ; j >= 0; j = w.pool[j].next {
		if w.pool[j].row == openRow {
			bk.hit, bk.hitSeq = j, w.pool[j].seq
			w.hit.Set(b)
			return
		}
	}
	bk.hit = -1
	w.hit.Clear(b)
}
