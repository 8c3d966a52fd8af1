package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"time"

	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/pcap"
	"bitmapfilter/internal/resilience"
	"bitmapfilter/internal/tenant"
)

// filterStats is the introspection surface core.Filter and tenant.Set
// share.
type filterStats interface {
	filtering.BatchFilter
	Stats() core.Stats
	Utilization() float64
}

// bench is one workload: its inputs, the program it sets up, and its
// fixed-count pass and isolated layer measurements.
type bench interface {
	// prepare builds the seeded inputs; nothing here is timed.
	prepare(seed uint64) error
	// open sets the program up: config parse / Build / NewSet, and the
	// source. Timed, with the first batch, as setup_s.
	open() (stepper, filterStats, error)
	// rotateEvery is Δt, for telling the batches that rotate.
	rotateEvery() time.Duration
	// fixed returns the deterministic fixed-count pass over a fresh
	// program. The wire workloads run it in prepare, on the stream that
	// also yields their replayed inputs.
	fixed() (fixedResult, error)
	// layers runs the isolated per-layer measurements.
	layers(m metrics) error
	// wire reports whether the timed path includes capture and decode.
	wire() bool
}

// fixedResult is what the fixed-count pass scored.
type fixedResult struct {
	probes, probesPassed uint64 // unsolicited incoming
	legitIn, legitDrop   uint64 // legitimate incoming
	replyDrops           uint64 // prompt replies dropped: must be 0
	groups, batches      uint64 // distinct tenants per batch
	utilization          float64
	counterMismatch      bool
}

func (r *fixedResult) score(pkts []packet.Packet, cls []uint8, v []filtering.Verdict) {
	for i := range pkts {
		switch cls[i] {
		case clsReply, clsLate:
			r.legitIn++
			if v[i] != filtering.Pass {
				r.legitDrop++
				if cls[i] == clsReply {
					r.replyDrops++
				}
			}
		case clsProbe:
			r.probes++
			if v[i] == filtering.Pass {
				r.probesPassed++
			}
		}
	}
}

// agree reports whether the filter's own counters moved exactly as the
// driver's verdict accounting did between two snapshots, and whether every
// incoming verdict was a pass or a drop.
func agree(fc, fc0 filtering.Counters, c, c0 counts) bool {
	in, passed, dropped := c.in-c0.in, c.passed-c0.passed, c.dropped-c0.dropped
	return passed+dropped == in &&
		fc.OutPackets-fc0.OutPackets == c.out-c0.out &&
		fc.InPackets-fc0.InPackets == in &&
		fc.InPassed-fc0.InPassed == passed &&
		fc.InDropped-fc0.InDropped == dropped
}

// ---------------------------------------------------------------- wire

// wireBench is a bfwall-style workload: a second of seeded traffic
// encoded to an in-memory pcap and replayed in loops through the wire
// path.
type wireBench struct {
	spec      wireSpec
	dt        time.Duration
	warm      time.Duration // virtual time before the measured window
	lap       time.Duration // window encoded to the replayed pcap
	counted   time.Duration // window the fixed-count pass scores
	sampleDur time.Duration // window the isolated layer runs replay
	order     uint
	tenants   int // > 0: a tenant.Set of /16s under 10.0.0.0/8

	config   []byte // tenant fleet JSON
	pcap     []byte
	lapPkts  []packet.Packet // the lap as generated, times rebased to the pcap
	sample   []packet.Packet // isolated-layer input, absolute times
	ring     []capture.Frame
	pkts     []packet.Packet
	verdicts []filtering.Verdict
	fx       fixedResult
}

func (w *wireBench) wire() bool                 { return true }
func (w *wireBench) rotateEvery() time.Duration { return w.dt }

// prompt is (k-1)·Δt: a reply this soon after its flow's last outgoing
// packet always finds the marks.
func (w *wireBench) prompt() time.Duration { return 3 * w.dt }

func (w *wireBench) geometry() []core.Option {
	return []core.Option{core.WithOrder(w.order), core.WithVectors(4), core.WithHashes(3), core.WithRotateEvery(w.dt)}
}

func (w *wireBench) prepare(seed uint64) error {
	if w.tenants > 0 {
		var b strings.Builder
		b.WriteString(`{"tenants": [`)
		for i := 0; i < w.tenants; i++ {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, `{"id": "t%02d", "prefix": "10.%d.0.0/16", "order": %d, "vectors": 4, "hashes": 3, "rotate": "%v"}`, i, i, w.order, w.dt)
		}
		b.WriteString("]}")
		w.config = []byte(b.String())
	}
	fp, err := w.newFixedPass()
	if err != nil {
		return err
	}
	end := w.warm + max(w.counted, w.lap, w.sampleDur)
	g, err := newWireGen(w.spec, w.prompt(), end, seed)
	if err != nil {
		return err
	}
	defer g.close()
	var buf bytes.Buffer
	pw, err := pcap.NewWriter(&buf)
	if err != nil {
		return err
	}
	for {
		pkt, cls := g.next()
		if pkt.Time >= end {
			break
		}
		if pkt.Time < w.warm+w.counted {
			fp.add(pkt, cls)
		}
		if pkt.Time < w.warm || pkt.Time >= w.warm+w.sampleDur {
			continue
		}
		w.sample = append(w.sample, pkt)
		if pkt.Time >= w.warm+w.lap {
			continue
		}
		// The pcap starts at 0 so the replay's loops advance the clock by
		// one lap each, like bfwall's synthesized trace.
		pkt.Time -= w.warm
		w.lapPkts = append(w.lapPkts, pkt)
		frame, err := packet.Encode(pkt)
		if err != nil {
			return err
		}
		if err := pw.WriteRecord(pcap.Record{Time: pkt.Time, Data: frame}); err != nil {
			return err
		}
	}
	w.fx = fp.finish()
	w.pcap = buf.Bytes()
	w.ring = capture.NewRing(batchSize, capture.DefaultSnapLen)
	w.pkts = make([]packet.Packet, 0, batchSize)
	w.verdicts = make([]filtering.Verdict, 0, batchSize)
	return nil
}

// build is the program's configuration step, as bfwall's buildFilter
// does it: a tenant fleet from its JSON config, or a single filter.
func (w *wireBench) build() (filterStats, []packet.Prefix, error) {
	if w.tenants > 0 {
		cfg, err := tenant.ParseConfig(w.config)
		if err != nil {
			return nil, nil, err
		}
		prefixes := make([]packet.Prefix, len(cfg.Tenants))
		for i := range cfg.Tenants {
			prefixes[i] = cfg.Tenants[i].Prefix
		}
		set, err := tenant.NewSet(cfg)
		return set, prefixes, err
	}
	f, err := core.Build(w.geometry()...)
	if err != nil {
		return nil, nil, err
	}
	all, err := packet.ParsePrefix("10.0.0.0/8") // bfwall's default -subnets
	return f.(*core.Filter), []packet.Prefix{all}, err
}

func (w *wireBench) source(loops int) (*resilience.Supervisor, error) {
	return resilience.NewSupervisor(resilience.SupervisorConfig{
		Open: func() (capture.Source, error) {
			return capture.NewReplay(bytes.NewReader(w.pcap), loops)
		},
	})
}

func (w *wireBench) open() (stepper, filterStats, error) {
	bf, subnets, err := w.build()
	if err != nil {
		return nil, nil, err
	}
	src, err := w.source(math.MaxInt32)
	if err != nil {
		return nil, nil, err
	}
	return &wireRun{src: src, bf: bf, subnets: subnets, ring: w.ring, pkts: w.pkts, verdicts: w.verdicts}, bf, nil
}

// verifyDecode replays the pcap once and checks every decoded, classified
// packet against the packet that was encoded.
func (w *wireBench) verifyDecode() error {
	_, subnets, err := w.build()
	if err != nil {
		return err
	}
	src, err := w.source(1)
	if err != nil {
		return err
	}
	defer src.Close()
	run := &wireRun{src: src, subnets: subnets, ring: w.ring}
	i := 0
	var pkt packet.Packet
	for {
		n, err := src.ReadBatch(w.ring)
		for _, fr := range w.ring[:n] {
			if i >= len(w.lapPkts) {
				return fmt.Errorf("replay yields more than the %d frames encoded", len(w.lapPkts))
			}
			if err := packet.DecodeInto(&pkt, fr.Data); err != nil {
				return fmt.Errorf("frame %d: %v", i, err)
			}
			pkt.Time = fr.Time
			want := w.lapPkts[i]
			dir := packet.Incoming
			if run.inside(pkt.Tuple.Src) {
				dir = packet.Outgoing
			}
			if pkt.Tuple != want.Tuple || pkt.Time != want.Time || dir != want.Dir || pkt.Flags != want.Flags {
				return fmt.Errorf("frame %d decodes to %v, encoded %v", i, pkt, want)
			}
			i++
		}
		if err != nil {
			break
		}
	}
	if i != len(w.lapPkts) {
		return fmt.Errorf("replay yields %d frames, encoded %d", i, len(w.lapPkts))
	}
	return nil
}

// tenantOf maps a client address to its tenant index (0 without a fleet).
func (w *wireBench) tenantOf(pkt *packet.Packet) int {
	if w.tenants == 0 {
		return 0
	}
	client := pkt.Tuple.Src
	if pkt.Dir == packet.Incoming {
		client = pkt.Tuple.Dst
	}
	return int(byte(client >> 16))
}

func (w *wireBench) fixed() (fixedResult, error) { return w.fx, nil }

// wireFixed is the wire workloads' fixed-count pass: the generated stream
// from time 0 through the end of the counted window, judged in batches by
// a fresh program. The scan starts with the window, so everything before
// it only builds the bitmap state the window meets. prepare feeds it
// while it generates the replayed inputs from the same stream.
type wireFixed struct {
	w        *wireBench
	bf       filterStats
	fc0      filtering.Counters
	pkts     []packet.Packet
	cls      []uint8
	verdicts []filtering.Verdict
	seen     []bool
	c        counts
	r        fixedResult
}

func (w *wireBench) newFixedPass() (*wireFixed, error) {
	bf, _, err := w.build()
	if err != nil {
		return nil, err
	}
	return &wireFixed{
		w: w, bf: bf, fc0: bf.Counters(),
		pkts: make([]packet.Packet, 0, batchSize),
		cls:  make([]uint8, 0, batchSize),
		seen: make([]bool, max(w.tenants, 1)),
	}, nil
}

func (f *wireFixed) add(pkt packet.Packet, cls uint8) {
	f.pkts = append(f.pkts, pkt)
	f.cls = append(f.cls, cls)
	if len(f.pkts) == batchSize {
		f.judge()
	}
}

func (f *wireFixed) judge() {
	pkts := f.pkts
	f.verdicts = f.bf.ProcessBatchInto(pkts, f.verdicts)
	f.c.tally(pkts, f.verdicts, nil)
	if pkts[0].Time >= f.w.warm {
		f.r.score(pkts, f.cls, f.verdicts)
		clear(f.seen)
		for i := range pkts {
			t := f.w.tenantOf(&pkts[i])
			if !f.seen[t] {
				f.seen[t] = true
				f.r.groups++
			}
		}
		f.r.batches++
	}
	f.pkts, f.cls = pkts[:0], f.cls[:0]
}

func (f *wireFixed) finish() fixedResult {
	if len(f.pkts) > 0 {
		f.judge()
	}
	f.r.utilization = f.bf.Utilization()
	f.r.counterMismatch = !agree(f.bf.Counters(), f.fc0, f.c, counts{})
	return f.r
}

// ---------------------------------------------------------------- stream

// streamBench is stream-24: Table 1's {4×24} geometry over a stream of
// distinct flows built in memory.
type streamBench struct {
	order      uint
	slots      int
	step       time.Duration
	probeShare float64
	lateShare  float64

	ring     *streamRing
	verdicts []filtering.Verdict
}

// dt spans 2^20 packets.
func (s *streamBench) rotateEvery() time.Duration { return s.step << 20 }
func (s *streamBench) wire() bool                 { return false }

func (s *streamBench) geometry() []core.Option {
	return []core.Option{core.WithOrder(s.order), core.WithVectors(4), core.WithHashes(3), core.WithRotateEvery(s.rotateEvery())}
}

func (s *streamBench) prepare(seed uint64) error {
	// Late replies land 4.1–4.4 Δt after their flow's outgoing packet:
	// past k·Δt, so the marks are gone, yet inside the 4.5 Δt lap.
	dt := 1 << 20
	s.ring = buildStreamRing(s.slots, s.step, s.probeShare, s.lateShare, [2]int{dt*41/10 + 1, dt * 44 / 10}, seed)
	s.verdicts = make([]filtering.Verdict, 0, batchSize)
	return nil
}

func (s *streamBench) build() (*core.Filter, error) {
	f, err := core.Build(s.geometry()...)
	if err != nil {
		return nil, err
	}
	return f.(*core.Filter), nil
}

func (s *streamBench) open() (stepper, filterStats, error) {
	f, err := s.build()
	if err != nil {
		return nil, nil, err
	}
	return &streamRun{ring: s.ring, bf: f, verdicts: s.verdicts}, f, nil
}

// rebase restamps the ring as its first lap.
func (s *streamBench) rebase() {
	for i := range s.ring.pkts {
		s.ring.pkts[i].Time = time.Duration(i) * s.ring.step
	}
}

// fixed judges two laps on a fresh filter and scores the second: by then
// every vector has rotated through the stream.
func (s *streamBench) fixed() (fixedResult, error) {
	var r fixedResult
	f, err := s.build()
	if err != nil {
		return r, err
	}
	s.rebase()
	var verdicts []filtering.Verdict
	var c counts
	for lap := 0; lap < 2; lap++ {
		for off := 0; off < len(s.ring.pkts); off += batchSize {
			end := min(off+batchSize, len(s.ring.pkts))
			pkts := s.ring.pkts[off:end]
			verdicts = f.ProcessBatchInto(pkts, verdicts)
			c.tally(pkts, verdicts, nil)
			if lap == 1 {
				r.score(pkts, s.ring.cls[off:end], verdicts)
				r.groups++
				r.batches++
			}
			for i := range pkts {
				pkts[i].Time += s.ring.lapLen
			}
		}
	}
	r.utilization = f.Utilization()
	r.counterMismatch = !agree(f.Counters(), filtering.Counters{}, c, counts{})
	return r, nil
}
