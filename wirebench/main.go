// Command wirebench is the repository's wire-to-verdict benchmark. It
// replays seeded, pre-generated traffic through the packet path bfwall
// wires up — resilience.Supervisor → capture.Replay → packet.DecodeInto +
// subnet classification → ProcessBatchInto on a core.Filter or a
// tenant.Set, in 512-frame batches — as one closed loop on one
// goroutine, checks the verdicts, and prints one JSON result line.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash wirebench/run.sh --workload wire-scan --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics of a traced run and writes its spans file. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/trafficgen"
)

// campus is the paper's client network: six class-C subnets.
var campus = trafficgen.CampusSubnets()

func fleetPrefixes(n int) []packet.Prefix {
	out := make([]packet.Prefix, n)
	for i := range out {
		out[i] = packet.PrefixFrom(packet.AddrFrom4(10, byte(i), 0, 0), 16)
	}
	return out
}

func newBench(name string) (bench, error) {
	switch name {
	case "wire-scan":
		// Figure 5: trafficgen's campus sessions at the paper's scale
		// under a 500K pps random scan, into one {4×20} filter with
		// Δt = 5 s.
		return &wireBench{
			spec: wireSpec{
				clients: campus, sessions: 500, splits: 3, serverFINs: 0.1,
				probesPerSec: 500_000, probeFrom: 60 * time.Second, udpShare: 0.2,
			},
			dt: 5 * time.Second, warm: 60 * time.Second, lap: time.Second, counted: 60 * time.Second,
			sampleDur: time.Second, order: 20,
		}, nil
	case "wire-fleet":
		// bfwall -tenants: 64 tenants, each a /16 at {4×16}, trafficgen's
		// sessions over all of them and a scan at about a fifth of their
		// packet rate.
		return &wireBench{
			spec: wireSpec{
				clients: fleetPrefixes(64), sessions: 5000, splits: 8, serverFINs: 0.1,
				probesPerSec: 25_000, probeFrom: 30 * time.Second, udpShare: 0.2,
			},
			dt: 5 * time.Second, warm: 30 * time.Second, lap: time.Second, counted: 30 * time.Second,
			sampleDur: 10 * time.Second, order: 16, tenants: 64,
		}, nil
	case "stream-24":
		// Table 1's {4×24}: distinct flows, Δt = 2^20 packets, a lap of
		// 4.5 Δt.
		return &streamBench{
			order: 24, slots: 9 << 19, step: 4 * time.Microsecond,
			probeShare: 0.03, lateShare: 0.01,
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want wire-scan, wire-fleet or stream-24)", name)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// checks collects correctness failures; any one fails the run.
type checks []string

func (c *checks) expect(ok bool, format string, args ...any) {
	if !ok {
		*c = append(*c, fmt.Sprintf(format, args...))
	}
}

// Fixed-cost allocations the timed phase tolerates; none scales with
// packets. capture.Replay allocates a fresh pcap.Reader and its header
// buffer each time it rewinds to the start of the trace, and tenant.Set
// builds a new pooled dispatch scratch (the struct and its six slices)
// when the goroutine lands on a P whose pool is empty: once per P at
// most, without a GC. Beyond those, a few allocations come now and then
// that follow neither packets nor rewinds: up to five in a 30 s wire-scan
// phase, and in a memory profile one 48-byte object charged to
// capture.(*Replay).rewind itself. allocSlack absorbs them; a per-batch
// allocation would still add hundreds of thousands.
const (
	allocsPerRewind  = 2
	allocsPerScratch = 7
	allocSlack       = 16
)

const (
	setupReps = 15
	warmup    = 500 * time.Millisecond
	rewarm    = 200 * time.Millisecond
	latWindow = 500 * time.Millisecond
	// maxBatchRate bounds the per-batch buffers: batches per second.
	maxBatchRate = 25_000
)

func main() {
	res, fails, err := run(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		os.Exit(2)
	}
	for _, f := range fails {
		fmt.Fprintln(os.Stderr, "wirebench: check failed:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(args []string, log io.Writer) (result, checks, error) {
	fs := flag.NewFlagSet("wirebench", flag.ContinueOnError)
	workload := fs.String("workload", "wire-scan", "wire-scan, wire-fleet or stream-24")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured wall time")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	spansPath := fs.String("spans", "", "traced run's spans file (default .bench_build/spans/<workload>-<seed>.tsv)")
	if err := fs.Parse(args); err != nil {
		return result{}, nil, err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return result{}, nil, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	b, err := newBench(*workload)
	if err != nil {
		return result{}, nil, err
	}
	var fails checks
	m := metrics{}

	t0 := nanotime()
	if err := b.prepare(*seed); err != nil {
		return result{}, nil, err
	}
	fmt.Fprintf(log, "wirebench: inputs built in %.2f s\n", float64(nanotime()-t0)/1e9)
	if w, ok := b.(*wireBench); ok {
		fmt.Fprintf(log, "wirebench: the replayed second holds %d frames\n", len(w.lapPkts))
		if err := w.verifyDecode(); err != nil {
			fails.expect(false, "decode fidelity: %v", err)
		}
	}
	dur := time.Duration(*seconds * float64(time.Second))
	bufs := newBuffers(int(*seconds*maxBatchRate)+1024, *trace == 1)
	base := liveHeap()

	st, bf, setup0, err := setUp(b)
	if err != nil {
		return result{}, nil, err
	}
	// Only the kept instance moves past its first batch.
	st.finish()
	if _, err := runPhase(st, warmup, b.rotateEvery(), bufs, false); err != nil {
		return result{}, nil, err
	}
	memBytes := liveHeap() - base
	// The collections above emptied tenant.Set's scratch pool; refill it.
	if _, err := runPhase(st, rewarm, b.rotateEvery(), bufs, false); err != nil {
		return result{}, nil, err
	}

	rot0 := bf.Stats().Rotations
	c0 := *st.counters()
	fc0 := bf.Counters()
	phaseDur := dur
	if *trace == 1 {
		phaseDur = dur / 2
	}
	ph, err := runPhase(st, phaseDur, b.rotateEvery(), bufs, false)
	if err != nil {
		return result{}, nil, err
	}
	rotations := bf.Stats().Rotations - rot0
	checkPhase(&fails, b, st, bf, c0, fc0, ph, rotations)

	var traced phase
	if *trace == 1 {
		tc0 := *st.counters()
		tfc0 := bf.Counters()
		trot0 := bf.Stats().Rotations
		traced, err = runPhase(st, dur/2, b.rotateEvery(), bufs, true)
		if err != nil {
			return result{}, nil, err
		}
		checkPhase(&fails, b, st, bf, tc0, tfc0, traced, bf.Stats().Rotations-trot0)
	}
	st, bf = nil, nil
	setup1, setup2 := setup0, setup0
	if *trace == 0 {
		if _, _, setup1, err = setUp(b); err != nil {
			return result{}, nil, err
		}
	}

	fx, err := b.fixed()
	if err != nil {
		return result{}, nil, err
	}
	if *trace == 0 {
		if _, _, setup2, err = setUp(b); err != nil {
			return result{}, nil, err
		}
	}
	fails.expect(fx.replyDrops == 0, "fixed pass dropped %d replies to flows marked within (k-1)·Δt", fx.replyDrops)
	fails.expect(!fx.counterMismatch, "fixed pass: the filter's counters disagree with its verdicts")
	fails.expect(fx.probes > 0 && fx.legitIn > 0, "fixed pass scored %d probes and %d legitimate replies", fx.probes, fx.legitIn)
	fails.expect(fx.probesPassed > 0 && fx.legitDrop > 0, "fixed pass: %d probes admitted, %d legitimate replies dropped; both ratios must be measurable", fx.probesPassed, fx.legitDrop)

	if *trace == 0 {
		m.set("pps", "pkt/s", float64(ph.judged)/(float64(ph.spanNs)/1e9))
		m.set("cpu_ns_per_pkt", "ns", float64(ph.cpuNs)/float64(ph.judged))
		m.set("batch_p50_us", "us", windowedQuantile(ph.lat, latWindow, 0.5)/1e3)
		m.set("batch_p99_us", "us", windowedQuantile(ph.lat, latWindow, 0.99)/1e3)
		m.set("rotation_batch_us", "us", interquartileMean(ph.rotLat)/1e3)
		m.set("setup_s", "s", (setup0+setup1+setup2)/3)
		m.set("mem_mib", "MiB", float64(memBytes)/(1<<20))
		m.set("penetration_ratio", "ratio", float64(fx.probesPassed)/float64(fx.probes))
		m.set("legit_drop_ratio", "ratio", float64(fx.legitDrop)/float64(fx.legitIn))
		fails.expect(len(ph.rotLat) > 0, "no batch fired a rotation in the timed phase")
		fmt.Fprintf(log, "wirebench: %s seed %d: %d batches, %d packets, %d rotation batches, host.probe_ns %.4f\n",
			*workload, *seed, ph.batches, ph.judged, len(ph.rotLat), hostProbe())
		fmt.Fprintf(log, "wirebench: fixed pass: %d of %d probes admitted, %d of %d legitimate incoming dropped, utilization %.4f\n",
			fx.probesPassed, fx.probes, fx.legitDrop, fx.legitIn, fx.utilization)
	} else {
		if err := b.layers(m); err != nil {
			return result{}, nil, err
		}
		tracedPPS := float64(traced.judged) / (float64(traced.spanNs) / 1e9)
		untracedPPS := float64(ph.judged) / (float64(ph.spanNs) / 1e9)
		m.set("trace.overhead_ratio", "ratio", tracedPPS/untracedPPS)
		m.set("core.rotations", "count", float64(rotations))
		m.set("core.utilization", "ratio", fx.utilization)
		m.set("tenant.groups_per_batch", "count", float64(fx.groups)/float64(fx.batches))
		m.set("runtime.allocs_per_pkt", "count", float64(ph.allocs)/float64(ph.judged))
		m.set("runtime.gc_cycles", "count", float64(ph.gcs))
		m.set("host.probe_ns", "ns", hostProbe())
		filterName := "core.filter"
		if w, ok := b.(*wireBench); ok && w.tenants > 0 {
			filterName = "tenant.filter"
		}
		if err := spanLayers(m, traced.spans, b.wire(), filterName, &fails, log); err != nil {
			return result{}, nil, err
		}
		path := *spansPath
		if path == "" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.tsv", *workload, *seed))
		}
		if err := writeSpans(path, traced.spans, b.wire(), filterName); err != nil {
			return result{}, nil, err
		}
		fmt.Fprintf(log, "wirebench: spans written to %s\n", path)
	}
	sort.Strings(fails)
	return result{
		Correct:   len(fails) == 0,
		Attempted: ph.frames + traced.frames,
		Failed:    ph.frames + traced.frames - ph.judged - traced.judged,
		Metrics:   m,
	}, fails, nil
}

// setUp sets the program up setupReps times — config parse / Build /
// NewSet and the source, to the first batch's verdicts — and returns the
// last instance and the median time in seconds. Before each set-up the
// heap is collected and its free memory returned to the OS, so every
// set-up pays the page faults of a freshly started daemon: after a bare
// collection the runtime reuses the freed spans in some set-ups and not in
// others, a two-mode mix whose median flips. A run sets up in three
// bursts, one before the timed phase and two after it, and setup_s
// averages the three medians: on a shared host one burst can sit wholly
// in a slow or a fast phase.
func setUp(b bench) (stepper, filterStats, float64, error) {
	if s, ok := b.(*streamBench); ok {
		s.rebase() // every burst starts on the ring's first lap
	}
	var st stepper
	var bf filterStats
	setups := make([]float64, 0, setupReps)
	for r := 0; r < setupReps; r++ {
		st, bf = nil, nil
		debug.FreeOSMemory()
		t0 := nanotime()
		s, f, err := b.open()
		if err != nil {
			return nil, nil, 0, err
		}
		if _, err := s.step(nil); err != nil {
			return nil, nil, 0, err
		}
		setups = append(setups, float64(nanotime()-t0)/1e9)
		st, bf = s, f
	}
	return st, bf, medianF(setups), nil
}

// checkPhase applies the operation-failure accounting to a timed phase.
func checkPhase(fails *checks, b bench, st stepper, bf filterStats, c0 counts, fc0 filtering.Counters, ph phase, rotations uint64) {
	c := *st.counters()
	frames := c.frames - c0.frames
	judged := c.judged - c0.judged
	decodeErrs := c.decodeErrs - c0.decodeErrs
	unrouted := c.unrouted - c0.unrouted
	fails.expect(frames == judged+decodeErrs+unrouted, "frames read %d != judged %d + decode errors %d + unrouted %d", frames, judged, decodeErrs, unrouted)
	fails.expect(decodeErrs == 0 && unrouted == 0, "%d decode errors and %d unrouted frames on a clean trace", decodeErrs, unrouted)
	fails.expect(agree(bf.Counters(), fc0, c, c0),
		"passed %d + dropped %d of %d incoming, or the filter's counters disagree with the driver's verdict accounting",
		c.passed-c0.passed, c.dropped-c0.dropped, c.in-c0.in)
	fails.expect(c.replyDrops == c0.replyDrops, "%d replies to flows marked within (k-1)·Δt dropped", c.replyDrops-c0.replyDrops)
	if w, ok := b.(*wireBench); !ok || w.tenants == 0 {
		fails.expect(rotations == ph.crossings, "filter rotated %d times over %d Δt boundaries", rotations, ph.crossings)
	}
	// The judge path must allocate nothing per packet.
	allowed := uint64(allocSlack)
	if w, ok := b.(*wireBench); ok {
		n := uint64(len(w.lapPkts))
		allowed += (c.frames/n - c0.frames/n + 1) * allocsPerRewind
		if w.tenants > 0 {
			allowed += uint64(runtime.GOMAXPROCS(0)) * allocsPerScratch
		}
	}
	fails.expect(ph.allocs <= allowed, "%d heap allocations in the timed phase (%d allowed for replay rewinds, pooled scratch and a small slack)", ph.allocs, allowed)
}
