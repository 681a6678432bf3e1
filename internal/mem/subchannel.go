package mem

import (
	"math"
	"math/bits"
	"strconv"

	"mirza/internal/dram"
	"mirza/internal/sim"
	"mirza/internal/telemetry"
	"mirza/internal/track"
)

// alert protocol states.
const (
	alertIdle = iota
	alertPrologue
	alertStall
)

// SubChannel is one independently scheduled DDR5 sub-channel.
//
// Bank state lives in struct-of-arrays timing planes (DESIGN.md §16)
// rather than a []bankState: each scheduling scan — "oldest request with a
// closed, ready bank", "raise every bank to the REF end" — walks only the
// one or two flat slices it actually reads, and whole-plane updates
// (RaiseAll at REF/ALERT) vectorize over contiguous memory. Set-valued
// bank properties (row open, RFM pending) are dram.BankSets, so emptiness
// tests are word compares and iteration visits only set members.
type SubChannel struct {
	k   *sim.Kernel
	cfg Config
	id  int
	mit track.Mitigator

	// Per-bank planes, indexed by bank.
	openRow    []int32        // open row, -1 when precharged
	openedAt   dram.TimePlane // time of the last ACT
	colReadyAt dram.TimePlane // earliest column command (tRCD after ACT)
	preReadyAt dram.TimePlane // earliest precharge (tRAS / read-to-pre / write recovery)
	actReadyAt dram.TimePlane // earliest next ACT (tRC after ACT, tRP after PRE, RFM/REF end)
	idleAt     dram.TimePlane // time the bank is fully precharged/idle (REF/RFM gating)
	actCounter []int32        // BAT counter for proactive RFM

	open       dram.BankSet // banks with openRow >= 0
	rfmPending dram.BankSet // banks owing a proactive RFM before their next ACT
	rfmCount   int          // popcount of rfmPending, kept for O(1) emptiness

	queue   []*Request
	nextEnq int64
	// win summarises the scheduling window (the first WindowDepth queue
	// entries) per bank, kept current at every event that changes it, so
	// a scheduling pass reads bank sets instead of walking the window.
	win schedWindow

	faw       []dram.Time // times of the last 4 ACTs (ring)
	fawIdx    int
	lastActAt dram.Time
	busFreeAt dram.Time

	refDue       dram.Time
	refBusyUntil dram.Time
	refIndex     int

	alertState    int
	alertStallAt  dram.Time
	alertEndAt    dram.Time
	actSinceAlert bool

	// wakeEv is the single persistent scheduler-wake event. It coalesces
	// every wake source — request arrival, bank/bus timing, refresh due,
	// ALERT windows — into one reusable handle: arm() reschedules it to
	// the next provably interesting time and nothing sooner, so an idle
	// sub-channel fast-forwards straight to its next REF with no
	// intermediate events, and submit fires it at the arrival instant
	// through the kernel's O(1) poke lane instead of pulling the slot
	// through the heap and back.
	wakeEv sim.Event
	stats  Stats

	// nextAction is the earliest instant anything can issue, as armed by
	// the last scheduling scan and min-merged with the enable time of
	// every arrival since (see submit). A wake that fires strictly before
	// it is an arrival-coalescing wake: the scheduler re-arms in O(1)
	// instead of scanning, because the merged candidate set already
	// proves the scan would be a no-op.
	nextAction dram.Time

	wakes int64 // kernel wakes delivered (mem_wakes_total)
	steps int64 // step transitions across all wakes (mem_wake_steps_total)

	// hitSet is win.hit as of the last completed scheduling pass. It is
	// a snapshot, not the live set, because arrivalWake reads it between
	// passes and must see the classification the armed time was computed
	// from.
	hitSet dram.BankSet

	// obs, when non-nil, shadows every command the sub-channel issues
	// (protocol auditing, test instrumentation). Each command site pays
	// one nil test, the same discipline as teleBankActs.
	obs CommandObserver

	// teleBankActs counts ACTs per bank since the last REF; at each REF
	// every bank's count is observed into teleActHist and reset. Both are
	// nil when telemetry is disabled, so the hot path pays one nil test.
	teleBankActs []int64
	teleActHist  *telemetry.Histogram
}

func newSubChannel(k *sim.Kernel, cfg Config, id int) *SubChannel {
	nb := cfg.Geometry.BanksPerSubChannel
	s := &SubChannel{
		k:             k,
		cfg:           cfg,
		id:            id,
		openRow:       make([]int32, nb),
		openedAt:      dram.NewTimePlane(nb),
		colReadyAt:    dram.NewTimePlane(nb),
		preReadyAt:    dram.NewTimePlane(nb),
		actReadyAt:    dram.NewTimePlane(nb),
		idleAt:        dram.NewTimePlane(nb),
		actCounter:    make([]int32, nb),
		open:          dram.NewBankSet(nb),
		rfmPending:    dram.NewBankSet(nb),
		win:           newSchedWindow(cfg.WindowDepth, nb),
		hitSet:        dram.NewBankSet(nb),
		faw:           make([]dram.Time, 4),
		refDue:        cfg.Timing.TREFI,
		actSinceAlert: true,
	}
	s.wakeEv.Bind((*subWake)(s))
	for i := range s.openRow {
		s.openRow[i] = -1
	}
	for i := range s.faw {
		s.faw[i] = -cfg.Timing.TFAW
	}
	s.lastActAt = -cfg.Timing.TRRD
	sink := track.FuncSink(func(bank, row, victims int, now dram.Time) {
		s.stats.Mitigations++
		s.stats.VictimRows += int64(victims)
	})
	if cfg.NewMitigator != nil {
		s.mit = cfg.NewMitigator(id, sink)
	} else {
		s.mit = track.NewNop()
	}
	if cfg.Telemetry.Enabled() {
		s.teleBankActs = make([]int64, nb)
		s.teleActHist = cfg.Telemetry.Histogram("mem_bank_acts_per_ref", 32, 4,
			telemetry.L("sub", strconv.Itoa(id)))
	}
	// Refresh is self-sustaining: arm the first REF.
	s.arm(s.refDue)
	return s
}

// Stats returns a copy of the sub-channel's counters.
func (s *SubChannel) Stats() Stats { return s.stats }

// Mitigator returns the attached mitigation engine.
func (s *SubChannel) Mitigator() track.Mitigator { return s.mit }

// RefIndex returns the number of REF commands executed so far.
func (s *SubChannel) RefIndex() int { return s.refIndex }

// PendingRequests returns the number of requests still queued on this
// sub-channel (for drain and conservation checks).
func (s *SubChannel) PendingRequests() int { return len(s.queue) }

func (s *SubChannel) submit(r *Request) {
	if r.Done != nil {
		r.doneEv.Bind((*requestDone)(r))
	}
	r.arrive = s.k.Now()
	r.enqueue = s.nextEnq
	s.nextEnq++
	s.queue = append(s.queue, r)
	if len(s.queue) <= s.cfg.WindowDepth {
		s.win.add(r, s.openRow[r.addr.Bank])
	}
	if s.obs != nil {
		s.obs.ObserveSubmit(s.id, r.Write, r.arrive)
	}
	if c := s.arrivalWake(int(r.addr.Bank), int32(r.addr.Row)); c < s.nextAction {
		s.nextAction = c
	}
	// Fire the wake at the submit instant. Unless it is already due right
	// now, poke it: the wake fires with a fresh FIFO sequence number —
	// after every event already queued for this instant, exactly as the
	// old pull-forward Reschedule ordered it — while its heap slot stays
	// parked at the armed time, where the post-wake re-arm moves it with a
	// short fix instead of a full to-now-and-back round trip.
	if !(s.wakeEv.Scheduled() && s.wakeEv.When() <= r.arrive) {
		s.k.PokeNow(&s.wakeEv)
	}
}

// arrivalWake returns the earliest time at which this arrival can change
// the scheduler's next action, for submit to min-merge into nextAction.
// The wake itself still fires at the submit instant — that keeps the
// kernel event sequencing identical to an always-scan controller, which
// closed-loop runs observe through same-instant completion ordering —
// but when the merged time is still in the future the wake re-arms in
// O(1) instead of running a scheduling pass.
//
// For an in-window arrival in the normal (unblocked) state, the entry
// only ever *enables* its own command sort: demand precharge at
// preReadyAt for a row conflict, activate at the bank/pacing gates for a
// closed bank — mirrored exactly from pass()'s candidate formulas. Every
// other case must force a full scan at the submit instant (return now),
// because the arrival changes the candidate set in a way a single
// formula does not capture:
//
//   - a row hit vetoes the bank's soft close-page and RFM-precharge
//     candidates, so the armed time may now be too early — only a rescan
//     restores exactness;
//   - while a demand REF is due or executing, or an ALERT stall is
//     pending, the scheduler's next action belongs to the refresh/ALERT
//     machinery, and an arrival flips the idle-through-REF decision —
//     pass() re-decides through armBlocked/passRefresh, which are O(1)
//     and O(banks) respectively, so forcing the scan costs nothing;
//   - beyond the scheduling window the entry is invisible to the command
//     ladder and contributes nothing — the armed time stays exact (the
//     queue was already non-empty, so no idle-through decision flips) and
//     the wake stays lazy.
func (s *SubChannel) arrivalWake(b int, row int32) dram.Time {
	t := &s.cfg.Timing
	now := s.k.Now()
	if s.alertState == alertStall || now < s.refBusyUntil || s.refDue <= now ||
		s.rfmCount > 0 {
		// Blocked states, a due REF, or a pending proactive RFM: the next
		// action belongs to machinery whose issue rules are more permissive
		// than the armed candidates (the RFM precharge, in particular,
		// overrides the pending-hit veto the arm honours), so only a rescan
		// keeps the armed time exact.
		return now
	}
	if len(s.queue) > s.cfg.WindowDepth {
		return s.nextAction
	}
	switch or := s.openRow[b]; {
	case or == row:
		return now
	case or >= 0:
		if s.hitSet.Test(b) {
			// The open row has a pending hit, which vetoes every precharge
			// candidate on this bank — the armed time may include sorts this
			// conflict cannot unlock; rescan for exactness.
			return now
		}
		// A conflict drops the bank's precharge time from the soft
		// close-page point to preReadyAt.
		return s.preReadyAt[b]
	default:
		at := s.actReadyAt[b]
		if s.idleAt[b] > at {
			at = s.idleAt[b]
		}
		if f := s.faw[s.fawIdx] + t.TFAW; f > at && !debugSkipFAW {
			at = f
		}
		if rr := s.lastActAt + t.TRRD; rr > at {
			at = rr
		}
		return at
	}
}

// dequeue removes r, the oldest window hit on bank b, which a column
// command just served, and pulls the next queued request into the window.
// The vacated pointer slot is cleared so the retired *Request (and its
// bound done event) does not stay reachable through the backing array.
func (s *SubChannel) dequeue(r *Request, b int) {
	s.win.removeHit(b, s.openRow[b])
	i := 0
	for s.queue[i] != r {
		i++
	}
	last := len(s.queue) - 1
	copy(s.queue[i:], s.queue[i+1:])
	s.queue[last] = nil
	s.queue = s.queue[:last]
	if d := s.cfg.WindowDepth; last >= d {
		r := s.queue[d-1]
		s.win.add(r, s.openRow[r.addr.Bank])
	}
}

// subWake adapts a SubChannel to sim.Handler for its wake event.
type subWake SubChannel

func (w *subWake) Fire(dram.Time) { (*SubChannel)(w).wake() }

func (s *SubChannel) wake() {
	if s.nextAction > s.k.Now() {
		// Arrival-coalescing wake: everything merged into nextAction since
		// the last scan lies strictly in the future, so a scan would issue
		// nothing and re-arm at exactly nextAction — do that re-arm (with
		// this instant's event ordering, like the scan would) and skip the
		// scheduling pass.
		s.wakes++
		if d := debugOpts; d != nil && d.Wake != nil {
			d.Wake(0)
		}
		s.k.Reschedule(&s.wakeEv, s.nextAction)
		return
	}
	d := debugOpts
	n := 0
	for {
		fired := s.pass()
		if d != nil && d.Pass != nil {
			d.Pass(s)
		}
		if !fired {
			break
		}
		n++
	}
	s.wakes++
	s.steps += int64(n)
	if d != nil && d.Wake != nil {
		d.Wake(n)
	}
}

// arm records the next provably interesting instant and schedules the
// wake there. Every scheduling scan ends here (or in a blocked-state
// equivalent); submit min-merges arrival enable times into nextAction
// between scans. The Reschedule is unconditional — arm always runs as a
// wake concludes, and the fresh FIFO sequence number it assigns is what
// keeps the wake firing after events already queued for the armed
// instant, exactly as the retired pop-and-reschedule shape ordered it.
func (s *SubChannel) arm(at dram.Time) {
	s.nextAction = at
	if at < never {
		s.k.Reschedule(&s.wakeEv, at)
	} else {
		s.k.Cancel(&s.wakeEv)
	}
}

// never is the sentinel "no candidate" wake time.
const never = dram.Time(1) << 62

// pass attempts the single highest-priority transition available at the
// current instant — ALERT bookkeeping, demand REF, ALERT initiation, RFM,
// column, precharge, activate, in that strict order — and reports whether
// one fired (zero-delay actions chain until quiescent). When nothing
// fires, the very same loops have already collected the earliest future
// candidate time for every transition sort, and pass arms the wake there
// before returning false. The scheduling window enters only through its
// per-bank summary (s.win): every loop below visits set bits of a bank
// set, never a queued entry.
func (s *SubChannel) pass() bool {
	now := s.k.Now()
	t := &s.cfg.Timing

	// ALERT protocol bookkeeping.
	switch s.alertState {
	case alertStall:
		if now < s.alertEndAt {
			s.armBlocked(now)
			return false
		}
		// The back-off RFM executed during the stall window; mitigation
		// completes as the stall ends.
		s.mit.ServiceALERT(now)
		s.alertState = alertIdle
		if s.obs != nil {
			s.obs.ObserveAlert(s.id, AlertEnd, now)
		}
		return true
	case alertPrologue:
		if now >= s.alertStallAt {
			// Stall begins: all banks are precharged for the back-off RFM.
			// Open rows are force-closed through precharge so the close is
			// fully accounted (RowPress equivalent-ACT weighting, stats.PREs;
			// see DESIGN.md §12) — these device-side closes may cut tRAS
			// short, which the auditor exempts via the forced flag. The
			// per-bank timers are then raised to the stall end, which always
			// dominates the tRP that precharge just applied (the stall is
			// 350ns, tRP at most 36ns).
			s.open.ForEach(func(b int) { s.precharge(b, now, true) })
			s.actReadyAt.RaiseAll(s.alertEndAt)
			s.idleAt.RaiseAll(s.alertEndAt)
			s.alertState = alertStall
			if s.obs != nil {
				s.obs.ObserveAlert(s.id, AlertStallStart, now)
			}
			return true
		}
	}

	// Sub-channel blocked while a REF executes.
	if now < s.refBusyUntil {
		s.armBlocked(now)
		return false
	}

	// Demand refresh has strict priority once due.
	if now >= s.refDue && s.alertState == alertIdle {
		return s.passRefresh(now)
	}

	// Reactive ALERT initiation: requires at least one ACT since the
	// previous ALERT completed (the mandatory epilogue activation).
	if s.alertState == alertIdle && s.actSinceAlert && s.mit.WantsALERT() {
		s.alertState = alertPrologue
		s.alertStallAt = now + t.ABOPrologue
		s.alertEndAt = s.alertStallAt + t.ABOStall
		s.actSinceAlert = false
		s.stats.Alerts++
		s.stats.AlertStall += t.ABOStall
		if s.obs != nil {
			s.obs.ObserveAlert(s.id, AlertPrologueStart, now)
		}
		return true
	}

	// Proactive RFM execution. Wake candidates for still-blocked pending
	// banks are collected with the other candidates below.
	if s.rfmCount > 0 {
		for wi, w := range s.rfmPending.Words() {
			for base := wi << 6; w != 0; w &= w - 1 {
				b := base + bits.TrailingZeros64(w)
				if s.openRow[b] >= 0 {
					if now >= s.preReadyAt[b] {
						s.precharge(b, now, false)
						return true
					}
					continue
				}
				if now >= s.idleAt[b] {
					s.rfmPending.Clear(b)
					s.rfmCount--
					s.actReadyAt[b] = now + t.TRFM
					s.idleAt[b] = now + t.TRFM
					s.stats.RFMs++
					s.stats.RFMBusy += t.TRFM
					if s.obs != nil {
						s.obs.ObserveRFM(s.id, b, now)
					}
					s.mit.OnRFM(b, now)
					return true
				}
			}
		}
	}

	next := never
	if s.alertState == alertPrologue {
		next = s.alertStallAt
	}
	if s.refDue > now && s.refDue < next {
		next = s.refDue // refresh is self-sustaining
	}

	// Column: the oldest window hit on a column-ready bank issues (FR
	// first, then FCFS by enqueue age). A hit that cannot issue wakes when
	// both its bank and the bus allow it (busFreeAt - tCL).
	hitW := s.win.hit.Words()
	banks := s.win.banks
	pool := s.win.pool
	colReadyAt := s.colReadyAt[:len(banks)]
	if busEarliest := s.busFreeAt - t.TCL; busEarliest > now {
		// Bus busy: nothing issues, and the hits' wake candidate is
		// max(earliest colReadyAt, busEarliest), so the scan can stop at
		// the first hit bank that is ready by the time the bus frees.
		at := never
	hits:
		for wi, w := range hitW {
			for base := wi << 6; w != 0; w &= w - 1 {
				if c := colReadyAt[base+bits.TrailingZeros64(w)]; c < at {
					if at = c; at <= busEarliest {
						break hits
					}
				}
			}
		}
		next = min(next, max(at, busEarliest))
	} else {
		colBank, colSeq := -1, int64(math.MaxInt64)
		for wi, w := range hitW {
			for base := wi << 6; w != 0; w &= w - 1 {
				b := base + bits.TrailingZeros64(w)
				if at := colReadyAt[b]; at > now {
					next = min(next, at)
				} else if seq := banks[b].hitSeq; seq < colSeq {
					colBank, colSeq = b, seq
				}
			}
		}
		if colBank >= 0 {
			r := pool[banks[colBank].hit].req
			s.issueColumn(r, colBank, now)
			s.dequeue(r, colBank)
			return true
		}
	}

	// RFM wake candidates: a pending bank fires at preReady (open, no
	// hit) or at idle (closed).
	if s.rfmCount > 0 {
		for wi, w := range s.rfmPending.Words() {
			hw := hitW[wi]
			for base := wi << 6; w != 0; w &= w - 1 {
				b := base + bits.TrailingZeros64(w)
				if s.openRow[b] >= 0 {
					if hw&(w&-w) == 0 && s.preReadyAt[b] < next {
						next = s.preReadyAt[b]
					}
				} else if s.idleAt[b] < next {
					next = s.idleAt[b]
				}
			}
		}
	}

	// Precharge: oldest-conflict demand or soft close-page after tRAS.
	// A non-issuable open bank contributes its close time — immediately
	// at preReady for a pending conflict, the soft close-page point
	// otherwise — as a wake candidate. Hit-bearing banks are masked out
	// wholesale (soft close-page: pending hits are served first); on the
	// rest, every window entry is a conflict.
	presentW := s.win.present.Words()
	for wi, w := range s.open.Words() {
		w &^= hitW[wi]
		pw := presentW[wi]
		for base := wi << 6; w != 0; w &= w - 1 {
			b := base + bits.TrailingZeros64(w)
			conf := pw&(w&-w) != 0
			if now >= s.preReadyAt[b] && (conf || now-s.openedAt[b] >= t.TRAS) {
				s.precharge(b, now, false)
				return true
			}
			at := s.preReadyAt[b]
			if !conf && s.openedAt[b]+t.TRAS > at {
				at = s.openedAt[b] + t.TRAS
			}
			if at < next {
				next = at
			}
		}
	}

	// Activate: the oldest window entry whose bank is closed, ready, and
	// owes no RFM, gated by the channel-level ACT pacing (tRRD and the
	// four-activation window). Every closed bank with a window entry wakes
	// at the latest of its bank timers and the pacing gate.
	actReadyAt := s.actReadyAt[:len(banks)]
	idleAt := s.idleAt[:len(banks)]
	openW := s.open.Words()
	gate := s.lastActAt + t.TRRD
	if f := s.faw[s.fawIdx] + t.TFAW; f > gate && !debugSkipFAW {
		gate = f
	}
	if gate > now {
		// Pacing blocks every ACT: the candidate is max(earliest bank
		// ready time, gate), so the scan can stop at the first bank ready
		// by the gate.
		at := never
	acts:
		for wi, w := range presentW {
			w &^= openW[wi]
			for base := wi << 6; w != 0; w &= w - 1 {
				b := base + bits.TrailingZeros64(w)
				if c := max(actReadyAt[b], idleAt[b]); c < at {
					if at = c; at <= gate {
						break acts
					}
				}
			}
		}
		next = min(next, max(at, gate))
	} else {
		rfmW := s.rfmPending.Words()
		actBank, actSeq := -1, int64(math.MaxInt64)
		for wi, w := range presentW {
			w &^= openW[wi]
			rw := rfmW[wi]
			for base := wi << 6; w != 0; w &= w - 1 {
				b := base + bits.TrailingZeros64(w)
				at := max(actReadyAt[b], idleAt[b])
				if at <= now && rw&(w&-w) == 0 {
					if seq := pool[banks[b].head].seq; seq < actSeq {
						actBank, actSeq = b, seq
					}
				} else {
					next = min(next, max(at, gate))
				}
			}
		}
		if actBank >= 0 {
			s.activate(actBank, int(pool[banks[actBank].head].row), now)
			return true
		}
	}
	// This pass arms the wake: snapshot the hit set for arrivalWake.
	snap := s.hitSet.Words()
	for wi, w := range hitW {
		snap[wi] = w
	}

	if next < never && next <= now {
		// Defensive only: an on-time candidate cannot reach here (it
		// would have issued above); the clamp keeps the wake monotonic
		// regardless.
		next = now + dram.Picosecond
	}
	s.arm(next)
	return false
}

// armBlocked arms the wake while the sub-channel cannot issue at all (an
// ALERT prologue/stall wait or a REF busy window). No bank or queue scan
// is needed: REF raised every bank timer to at least refBusyUntil and
// closed every row, so every command candidate lands at or after the
// block ends — only the block end itself, the next REF, and the idle
// fast-forward decision matter.
func (s *SubChannel) armBlocked(now dram.Time) {
	next := never
	switch s.alertState {
	case alertPrologue:
		next = s.alertStallAt
	case alertStall:
		next = s.alertEndAt
	}
	if now < s.refBusyUntil {
		// The wake at refBusyUntil exists only to resume work the REF
		// blocked. With provably nothing to resume — no queued requests,
		// no pending RFM, no ALERT initiation owed, no open rows (there
		// cannot be: REF requires all banks idle) — the next interesting
		// time is refDue itself, so skip the intermediate wake and let the
		// sub-channel sleep a whole tREFI. Mitigator state cannot change
		// during the busy window (it only sees ACT/REF/RFM events, and
		// none issue before refBusyUntil), so WantsALERT sampled here
		// holds until then.
		idleThrough := len(s.queue) == 0 && s.rfmCount == 0 &&
			!(s.alertState == alertIdle && s.actSinceAlert && s.mit.WantsALERT()) &&
			s.refDue > s.refBusyUntil && s.open.None()
		if !idleThrough && s.refBusyUntil < next {
			next = s.refBusyUntil
		}
	}
	if s.refDue > now && s.refDue < next {
		next = s.refDue
	}
	s.arm(next)
}

// passRefresh makes progress toward (or executes) a due REF; while the
// REF is gated it arms the wake at the gating bank's time.
func (s *SubChannel) passRefresh(now dram.Time) bool {
	t := &s.cfg.Timing
	g := &s.cfg.Geometry
	if !s.open.None() {
		// Close open rows first; the earliest preReady bank goes now.
		// Banks already closed still gate the REF through idleAt (tRP,
		// RFM), so the latest of those is a candidate too.
		next := never
		var latestIdle dram.Time
		for b := range s.openRow {
			if s.openRow[b] >= 0 {
				if now >= s.preReadyAt[b] {
					s.precharge(b, now, false)
					return true
				}
				if s.preReadyAt[b] < next {
					next = s.preReadyAt[b]
				}
			} else if s.idleAt[b] > latestIdle {
				latestIdle = s.idleAt[b]
			}
		}
		if latestIdle > now && latestIdle < next {
			next = latestIdle
		}
		s.arm(next)
		return false
	}
	if m := s.idleAt.Max(); now < m {
		s.arm(m)
		return false
	}
	// Execute the all-bank REF.
	s.refBusyUntil = now + t.TRFC
	s.actReadyAt.RaiseAll(s.refBusyUntil)
	s.idleAt.RaiseAll(s.refBusyUntil)
	s.stats.REFs++
	s.stats.RefBusy += t.TRFC
	s.stats.DemandRefreshRows += int64(g.RowsPerREF) * int64(g.BanksPerSubChannel)
	if s.teleBankActs != nil {
		for b, acts := range s.teleBankActs {
			s.teleActHist.Observe(float64(acts))
			s.teleBankActs[b] = 0
		}
	}
	if s.obs != nil {
		s.obs.ObserveREF(s.id, s.refIndex, now)
	}
	s.mit.OnREF(s.refIndex, now) // 0-based position in the refresh walk
	s.refIndex++
	s.refDue += t.TREFI
	return true
}

// precharge closes the row open in bank. forced marks a device-side close
// during the ALERT prologue→stall transition, which is exempt from the
// controller-side row-cycle minimums (tRAS/tRTP/tWR) but still counted in
// stats.PREs and still subject to RowPress equivalent-ACT weighting.
func (s *SubChannel) precharge(bank int, now dram.Time, forced bool) {
	t := &s.cfg.Timing
	if s.cfg.RowPressWeighting && s.openRow[bank] >= 0 {
		// RowPress mitigation (Section II.A): a long-open row disturbs
		// its neighbours like extra activations; report one equivalent
		// ACT to the tracker per additional tRAS the row stayed open.
		extra := int((now-s.openedAt[bank])/t.TRAS) - 1
		if extra > 8 {
			extra = 8
		}
		for i := 0; i < extra; i++ {
			s.mit.OnActivate(bank, int(s.openRow[bank]), now)
		}
	}
	s.openRow[bank] = -1
	s.open.Clear(bank)
	s.win.closed(bank)
	s.actReadyAt.Raise(bank, now+t.TRP)
	s.idleAt[bank] = now + t.TRP
	s.stats.PREs++
	if s.obs != nil {
		s.obs.ObservePRE(s.id, bank, forced, now)
	}
}

func (s *SubChannel) activate(bank, row int, now dram.Time) {
	t := &s.cfg.Timing
	s.openRow[bank] = int32(row)
	s.open.Set(bank)
	s.win.opened(bank, int32(row))
	s.openedAt[bank] = now
	s.colReadyAt[bank] = now + t.TRCD
	s.preReadyAt[bank] = now + t.TRAS
	s.actReadyAt[bank] = now + t.TRC
	s.faw[s.fawIdx] = now
	s.fawIdx = (s.fawIdx + 1) % len(s.faw)
	s.lastActAt = now
	s.stats.ACTs++
	s.actSinceAlert = true
	if s.teleBankActs != nil {
		s.teleBankActs[bank]++
	}

	if s.cfg.RFMBAT > 0 {
		s.actCounter[bank]++
		if int(s.actCounter[bank]) >= s.cfg.RFMBAT {
			s.actCounter[bank] = 0
			if !s.rfmPending.Test(bank) {
				s.rfmPending.Set(bank)
				s.rfmCount++
			}
		}
	}
	if s.obs != nil {
		s.obs.ObserveACT(s.id, bank, row, now)
	}
	s.mit.OnActivate(bank, row, now)
}

func (s *SubChannel) issueColumn(r *Request, bank int, now dram.Time) {
	t := &s.cfg.Timing
	dataDone := now + t.TCL + t.TBUS
	s.busFreeAt = dataDone
	s.stats.BusBusy += t.TBUS
	if s.openedAt[bank] <= r.arrive {
		// The row was already open when the request arrived.
		s.stats.RowHits++
	} else {
		s.stats.RowMisses++
	}
	if r.Write {
		s.stats.Writes++
		s.preReadyAt.Raise(bank, dataDone+t.TWR)
		if s.obs != nil {
			s.obs.ObserveWrite(s.id, r.addr.Bank, r.addr.Row, now)
		}
		if r.Done != nil {
			r.Done(now) // posted write
		}
		return
	}
	s.stats.Reads++
	s.preReadyAt.Raise(bank, now+t.TRTP)
	if s.obs != nil {
		s.obs.ObserveRead(s.id, r.addr.Bank, r.addr.Row, now)
	}
	if r.Done != nil {
		s.k.ScheduleEvent(&r.doneEv, dataDone)
	}
}
