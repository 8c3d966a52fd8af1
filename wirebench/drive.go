package main

import (
	"errors"
	"io"
	"time"

	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
)

// batchSize is bfwall's default -batch.
const batchSize = 512

var epoch = time.Now() //bf:allow wallclock the benchmark measures wall time; the program under test still runs on packet time

// nanotime reads the monotonic clock.
func nanotime() int64 { return int64(time.Since(epoch)) } //bf:allow wallclock the benchmark measures wall time; the program under test still runs on packet time

// Child spans of a batch, in call order.
const (
	spanRead    = iota // capture.read: Supervisor.ReadBatch over Replay
	spanDecode         // packet.decode: DecodeInto + subnet classification
	spanFilter         // core.filter or tenant.filter: ProcessBatchInto
	spanAccount        // driver.account: verdict accounting
	nSpans
)

// span is one batch of the traced run: the root batch span and its
// children, each a [start, end) pair on the monotonic clock. Whatever
// the batch span holds outside its children is the driver's own time.
type span struct {
	start, end int64
	child      [nSpans][2]int64
	frames     int32
}

func (sp *span) open(i int) {
	if sp != nil {
		sp.child[i][0] = nanotime()
	}
}

func (sp *span) close(i int) {
	if sp != nil {
		sp.child[i][1] = nanotime()
	}
}

// counts is the driver's operation-failure accounting.
type counts struct {
	frames     uint64 // frames read from the source
	decodeErrs uint64 // frames DecodeInto rejected
	unrouted   uint64 // frames touching no client subnet
	judged     uint64 // packets handed to the filter
	out, in    uint64 // judged packets by direction
	passed     uint64 // incoming packets passed
	dropped    uint64 // incoming packets dropped
	replyDrops uint64 // prompt replies dropped (must stay 0)
}

// tally accounts one judged batch: packets by direction and the incoming
// packets' verdicts. With labels, it also counts the prompt replies
// dropped.
func (c *counts) tally(pkts []packet.Packet, verdicts []filtering.Verdict, cls []uint8) {
	var out, in, pass, drop, replyDrops uint64
	for i := range pkts {
		if pkts[i].Dir == packet.Outgoing {
			out++
			continue
		}
		in++
		switch verdicts[i] {
		case filtering.Pass:
			pass++
		case filtering.Drop:
			drop++
			if cls != nil && cls[i] == clsReply {
				replyDrops++
			}
		}
	}
	c.judged += uint64(len(pkts))
	c.out += out
	c.in += in
	c.passed += pass
	c.dropped += drop
	c.replyDrops += replyDrops
}

// stepper runs one closed-loop batch: read the next batch, judge it and
// account the verdicts. With sp non-nil it stamps the child-span
// boundaries. last is the timestamp of the batch's last packet.
type stepper interface {
	step(sp *span) (last time.Duration, err error)
	// finish runs after the batch's span has closed.
	finish()
	counters() *counts
}

// wireRun stands in for bfwall's pump: Supervisor → Replay →
// DecodeInto + subnet classification → ProcessBatchInto, on one reusable
// frame ring, packet batch and verdict buffer.
type wireRun struct {
	src      capture.Source
	bf       filtering.BatchFilter
	subnets  []packet.Prefix
	ring     []capture.Frame
	pkts     []packet.Packet
	verdicts []filtering.Verdict
	c        counts
}

func (w *wireRun) counters() *counts { return &w.c }

func (w *wireRun) finish() {}

func (w *wireRun) inside(a packet.Addr) bool {
	for _, s := range w.subnets {
		if s.Contains(a) {
			return true
		}
	}
	return false
}

func (w *wireRun) step(sp *span) (time.Duration, error) {
	sp.open(spanRead)
	n, err := w.src.ReadBatch(w.ring)
	sp.close(spanRead)
	if sp != nil {
		sp.frames = int32(n)
	}
	if n == 0 {
		if err == nil || errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF // the replay loops far beyond any run
		}
		return 0, err
	}
	sp.open(spanDecode)
	frames := w.ring[:n]
	pkts := w.pkts[:0]
	for i := range frames {
		m := len(pkts)
		pkts = pkts[:m+1]
		if packet.DecodeInto(&pkts[m], frames[i].Data) != nil {
			pkts = pkts[:m]
			w.c.decodeErrs++
			continue
		}
		pkts[m].Time = frames[i].Time
		switch {
		case w.inside(pkts[m].Tuple.Src):
			pkts[m].Dir = packet.Outgoing
		case w.inside(pkts[m].Tuple.Dst):
			pkts[m].Dir = packet.Incoming
		default:
			pkts = pkts[:m]
			w.c.unrouted++
		}
	}
	sp.close(spanDecode)
	w.c.frames += uint64(n)
	sp.open(spanFilter)
	w.verdicts = w.bf.ProcessBatchInto(pkts, w.verdicts)
	sp.close(spanFilter)
	sp.open(spanAccount)
	w.c.tally(pkts, w.verdicts, nil)
	sp.close(spanAccount)
	w.pkts = pkts[:0]
	return frames[n-1].Time, err
}

// streamRun feeds pre-built packets straight into the filter: no capture,
// no decode. After a batch is judged its timestamps move one lap ahead,
// ready for the ring's next pass.
type streamRun struct {
	ring     *streamRing
	pos      int // first slot of the next batch
	last     int // end of the batch in flight
	bf       filtering.BatchFilter
	verdicts []filtering.Verdict
	c        counts
}

func (s *streamRun) counters() *counts { return &s.c }

func (s *streamRun) step(sp *span) (time.Duration, error) {
	end := min(s.pos+batchSize, len(s.ring.pkts))
	pkts := s.ring.pkts[s.pos:end]
	cls := s.ring.cls[s.pos:end]
	if sp != nil {
		sp.frames = int32(len(pkts))
	}
	sp.open(spanFilter)
	s.verdicts = s.bf.ProcessBatchInto(pkts, s.verdicts)
	sp.close(spanFilter)
	sp.open(spanAccount)
	s.c.frames += uint64(len(pkts))
	s.c.tally(pkts, s.verdicts, cls)
	sp.close(spanAccount)
	s.last = end
	return pkts[len(pkts)-1].Time, nil
}

func (s *streamRun) finish() {
	pkts := s.ring.pkts[s.pos:s.last]
	for i := range pkts {
		pkts[i].Time += s.ring.lapLen
	}
	s.pos = s.last % len(s.ring.pkts)
}

// phase is what one timed phase measured.
type phase struct {
	batches   int
	frames    uint64  // frames (or packets) offered
	judged    uint64  // packets judged
	spanNs    int64   // time inside the batch spans
	lat       []int64 // per-batch read→verdict latency
	rotLat    []int64 // latency of the batches that crossed a rotation boundary
	crossings uint64
	spans     []span // traced runs only
	cpuNs     int64
	allocs    uint64
	gcs       uint32
}

// buffers are the driver's preallocated measurement buffers, so the
// timed loop itself never allocates.
type buffers struct {
	lat   []int64
	rot   []int64
	spans []span
}

func newBuffers(maxBatches int, traced bool) *buffers {
	b := &buffers{lat: make([]int64, 0, maxBatches), rot: make([]int64, 0, 1<<14)}
	if traced {
		b.spans = make([]span, 0, maxBatches)
	}
	return b
}

// runPhase drives s in a closed loop for the given wall time (or until a
// buffer in b is full). With traced set every batch records its spans.
// dt is the rotation period: a batch whose last timestamp crosses a
// multiple of dt is the one that fires the rotation.
func runPhase(s stepper, dur time.Duration, dt time.Duration, b *buffers, traced bool) (phase, error) {
	var p phase
	lat, rot := b.lat[:0], b.rot[:0]
	var spans []span
	if traced {
		spans = b.spans[:0]
	}
	c := s.counters()
	frames0, judged0 := c.frames, c.judged
	ms0 := readMem()
	cpu0 := cpuTime()
	var prev time.Duration = -1
	deadline := nanotime() + int64(dur)
	for len(lat) < cap(lat) && len(rot) < cap(rot) && (!traced || len(spans) < cap(spans)) {
		var sp *span
		if traced {
			spans = spans[:len(spans)+1]
			sp = &spans[len(spans)-1]
			*sp = span{}
		}
		t0 := nanotime()
		if sp != nil {
			sp.start = t0
		}
		last, err := s.step(sp)
		t1 := nanotime()
		if err != nil {
			return p, err
		}
		if sp != nil {
			sp.end = t1
		}
		lat = append(lat, t1-t0)
		p.spanNs += t1 - t0
		if prev >= 0 && last/dt != prev/dt {
			p.crossings++
			rot = append(rot, t1-t0)
		}
		prev = last
		s.finish()
		if t1 >= deadline {
			break
		}
	}
	p.cpuNs = cpuTime() - cpu0
	ms1 := readMem()
	p.allocs = ms1.Mallocs - ms0.Mallocs
	p.gcs = ms1.NumGC - ms0.NumGC
	p.batches = len(lat)
	p.lat = lat
	p.rotLat = rot
	p.spans = spans
	p.frames = c.frames - frames0
	p.judged = c.judged - judged0
	return p, nil
}
