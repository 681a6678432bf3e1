package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"mirza/internal/dram"
)

// defaultSeed is the experiments' default seed; at it every unit's output
// hash must equal the reference below.
const defaultSeed = 1

// referenceHash is the output hash of one unit of each workload at
// defaultSeed. A change that only makes the simulator faster leaves every
// simulated statistic, and so these hashes, unchanged.
var referenceHash = map[string]string{
	"replay_mirza": "737bae24223b6929ee2e06b942cb4a1d",
	"replay_prac":  "99c957319e2234e32b33132969656328",
	"timing_fig3":  "99aad1b406575bdf4037fc8dd507d9fc",
}

// setupReps is how many extra set-ups (beyond one per unit) feed the
// setup_s median.
const setupReps = 8

// measurement holds everything one invocation measured.
type measurement struct {
	w    *workload
	seed uint64

	setup       []float64   // scaled seconds per full set-up of every plan
	runWall     [][]float64 // [plan][unit] seconds advancing, warm-up included
	sliceRates  [][]float64 // [plan] accesses per scaled second of each measured slice
	refs        []float64   // reference kernel times behind every scaled interval
	measuredAcc []int64     // [plan] accesses in one unit's measured window
	allocsPer   []float64   // per untraced unit: heap allocations per Macc measured

	hash              string
	attempted, failed int
	findings          []string

	// Traced runs only.
	recWall []float64 // [plan] seconds advancing with the recording wrappers
	layers  layerTimes
	counts  map[string]float64
}

func newMeasurement(w *workload, seed uint64) *measurement {
	n := len(w.plans)
	return &measurement{
		w: w, seed: seed,
		runWall:     make([][]float64, n),
		sliceRates:  make([][]float64, n),
		measuredAcc: make([]int64, n),
		recWall:     make([]float64, n),
		counts:      map[string]float64{},
	}
}

func measure(o options, out io.Writer) (*measurement, error) {
	m := newMeasurement(o.w, o.seed)
	for i := 0; i < setupReps; i++ {
		total := 0.0
		for _, p := range o.w.plans {
			_, d, err := m.construct(p, nil)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			total += d
		}
		m.setup = append(m.setup, total)
	}
	start := time.Now()
	for m.attempted == 0 || time.Since(start) < time.Duration(o.seconds)*time.Second {
		if err := m.unit(false, out); err != nil {
			return nil, err
		}
	}
	if o.traced {
		if err := m.unit(true, out); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// unit runs every plan once from construction, checks the outputs, and
// records the timings.
func (m *measurement) unit(traced bool, out io.Writer) error {
	h := sha256.New()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	setup := 0.0
	var measured int64
	var problems []string
	for pi, p := range m.w.plans {
		var tr *tracer
		if traced {
			var err error
			if tr, err = newTracer(p, m.seed, &m.layers); err != nil {
				return fmt.Errorf("%s: %w", p, err)
			}
		}
		s, d, err := m.construct(p, tr)
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		setup += d
		if traced {
			m.recWall[pi] = m.advanceTraced(p, s, tr)
			tr.finish(s.trackers(), m.counts)
			s.addCounts(m.counts)
			m.findings = append(m.findings, tr.findings...)
		} else {
			m.runWall[pi] = append(m.runWall[pi], m.advance(pi, p, s))
			measured += m.measuredAcc[pi]
		}
		fmt.Fprintf(h, "plan %s\n", p)
		s.digest(h)
		if err := s.check(); err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", p, err))
		}
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if !traced {
		m.setup = append(m.setup, setup)
		m.allocsPer = append(m.allocsPer, float64(after.Mallocs-before.Mallocs)/(float64(measured)/1e6))
	}

	sum := hex.EncodeToString(h.Sum(nil))[:32]
	switch {
	case m.hash == "":
		m.hash = sum
	case sum != m.hash:
		problems = append(problems, fmt.Sprintf("output hash %s differs from the first unit's %s at the same seed", sum, m.hash))
	}
	if want, ok := referenceHash[m.w.name]; ok && m.seed == defaultSeed && sum != want {
		problems = append(problems, fmt.Sprintf("output hash %s differs from the reference %s", sum, want))
	}
	m.attempted++
	kind := "unit"
	if traced {
		kind = "traced unit"
	}
	if len(problems) > 0 {
		m.failed++
		fmt.Fprintf(out, "%s %d: hash=%s FAILED\n", kind, m.attempted, sum)
		for _, p := range problems {
			fmt.Fprintln(out, "  check failed:", p)
		}
		return nil
	}
	fmt.Fprintf(out, "%s %d: hash=%s ok (set-up %.2f ms)\n", kind, m.attempted, sum, setup*1e3)
	return nil
}

// The baseline machine is a shared virtual machine whose speed drifts by
// tens of percent over minutes as other tenants come and go. So every
// interval behind an end-to-end metric is scaled by a reference kernel
// timed just before and after it: a register-only loop that no simulator
// code touches, whose time follows the machine's speed. Scaled times read
// as seconds on the baseline machine at its median speed.
const (
	refIters   = 200_000
	refNominal = 2600 * time.Microsecond // median refKernel time on the baseline machine
)

var refSink float64

func refKernel() time.Duration {
	start := time.Now()
	x, f := uint64(88172645463325252), 0.0
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f += math.Log(float64(x>>11) + 1)
	}
	refSink += f
	return time.Since(start)
}

// scaled converts d to baseline-machine seconds, given the reference
// kernel's times before and after it.
func (m *measurement) scaled(d, before, after time.Duration) float64 {
	ref := (before + after) / 2
	m.refs = append(m.refs, ref.Seconds())
	return d.Seconds() * float64(refNominal) / float64(ref)
}

// construct builds p after a full collection and with the collector
// paused, so its time and the memory it adds measure construction work,
// not whether a collection happened to start during it. It returns the
// scaled construction time.
func (m *measurement) construct(p plan, tr *tracer) (simulation, float64, error) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := refKernel()
	start := time.Now()
	s, err := build(p, m.seed, tr)
	d := time.Since(start)
	return s, m.scaled(d, before, refKernel()), err
}

// advance runs p's warm-up in one step and its measured window in
// p.slices timed slices, returning the total wall time.
func (m *measurement) advance(pi int, p plan, s simulation) float64 {
	start := time.Now()
	s.advance(p.warmup)
	wall := time.Since(start)
	s.mark()
	first := s.accesses()
	before := refKernel()
	for k := 1; k <= p.slices; k++ {
		a := s.accesses()
		start := time.Now()
		s.advance(p.warmup + p.measure*dram.Time(k)/dram.Time(p.slices))
		d := time.Since(start)
		wall += d
		after := refKernel()
		m.sliceRates[pi] = append(m.sliceRates[pi], float64(s.accesses()-a)/m.scaled(d, before, after))
		before = after
	}
	m.measuredAcc[pi] = s.accesses() - first
	return wall.Seconds()
}

// advanceTraced runs p in segments, replaying the layers after each one.
// It returns the wall time spent in the simulation itself.
func (m *measurement) advanceTraced(p plan, s simulation, tr *tracer) float64 {
	var wall time.Duration
	step := func(from, to dram.Time) {
		for t := from; t < to; {
			t = min(t+p.segment, to)
			start := time.Now()
			s.advance(t)
			wall += time.Since(start)
			tr.flush()
		}
	}
	step(0, p.warmup)
	s.mark()
	step(p.warmup, p.warmup+p.measure)
	return wall.Seconds()
}

// endToEnd computes the end-to-end metrics of an untraced run.
func (m *measurement) endToEnd(out io.Writer) map[string]float64 {
	// Each plan's measured window takes its accesses at the median slice
	// rate: one stalled slice does not move the figure.
	var acc, secs float64
	for pi, p := range m.w.plans {
		a := float64(m.measuredAcc[pi])
		acc += a
		secs += a / median(m.sliceRates[pi])
		r := m.sliceRates[pi]
		sort.Float64s(r)
		fmt.Fprintf(out, "%s: %d accesses measured per unit; slice rate min %.3f median %.3f max %.3f Macc/s over %d slices\n",
			p, m.measuredAcc[pi], r[0]/1e6, median(r)/1e6, r[len(r)-1]/1e6, len(r))
	}
	fmt.Fprintf(out, "reference kernel: median %.3f ms over %d intervals, %.3f ms on the baseline machine\n",
		median(m.refs)*1e3, len(m.refs), refNominal.Seconds()*1e3)
	return map[string]float64{
		"macc_per_s":      acc / secs / 1e6,
		"setup_s":         median(m.setup),
		"rss_peak_mb":     peakRSSMB(),
		"allocs_per_macc": median(m.allocsPer),
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's peak resident set (VmHWM), falling back to
// the Go runtime's total reservation where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// machine describes the host the figures were measured on.
func machine() string {
	model := "unknown CPU"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("%s, nproc=%d, %s, GOMAXPROCS=%d",
		model, runtime.NumCPU(), runtime.Version(), runtime.GOMAXPROCS(0))
}
