package main

import (
	"math"
	"math/rand/v2"
	"time"

	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/trafficgen"
)

// Ground-truth label of a generated packet. The filter never sees it; the
// fixed-count pass uses it to score verdicts.
const (
	clsOut   uint8 = iota // legitimate outgoing packet
	clsReply              // legitimate incoming within (k-1)·Δt of its flow's last outgoing packet
	clsLate               // legitimate incoming later than that: a mark is not guaranteed
	clsProbe              // unsolicited incoming packet (scan or probe)
)

// wireSpec parameterizes the traffic of a wire workload: trafficgen's
// sessions, calibrated to the paper's §3.2 trace, under a random scan.
type wireSpec struct {
	clients      []packet.Prefix // client subnets
	sessions     float64         // trafficgen ConnRate over all clients, sessions/s
	splits       int             // generators the clients are dealt over
	serverFINs   float64         // trafficgen ServerTimeoutFraction
	probesPerSec float64         // scan rate
	probeFrom    time.Duration   // scan start (trace time)
	udpShare     float64         // share of scan probes over UDP
}

// wireGen merges trafficgen's legitimate sessions with a random scan into
// one time-ordered, labeled stream. Equal seeds give equal streams. Every
// timestamp is truncated to whole microseconds, the resolution of the
// pcap records the wire workloads replay, so a packet decoded off the
// wire is identical to the one generated.
//
// A large client set is dealt over several generators, each with its
// share of the session rate and its own goroutine: trafficgen keeps every
// scheduled packet of its open sessions in one heap, and at fleet scale
// popping that heap is most of the generation time. Close stops them.
type wireGen struct {
	legit     []*feed
	pending   []packet.Packet // next packet of each generator
	spec      wireSpec
	rng       *rand.Rand
	nextProbe time.Duration
	prompt    time.Duration // (k-1)·Δt
	lastOut   map[packet.Tuple]time.Duration
}

func newWireGen(spec wireSpec, prompt, end time.Duration, seed uint64) (*wireGen, error) {
	g := &wireGen{
		spec:    spec,
		rng:     rand.New(rand.NewPCG(seed, 0x5ca9_f10e)),
		prompt:  prompt,
		lastOut: make(map[packet.Tuple]time.Duration),
	}
	splits := max(spec.splits, 1)
	for i := 0; i < splits; i++ {
		cfg := trafficgen.DefaultConfig()
		cfg.Seed = seed*uint64(splits) + uint64(i)
		cfg.Duration = end
		cfg.Subnets = nil
		for j := i; j < len(spec.clients); j += splits {
			cfg.Subnets = append(cfg.Subnets, spec.clients[j])
		}
		cfg.ConnRate = spec.sessions * float64(len(cfg.Subnets)) / float64(len(spec.clients))
		cfg.ServerTimeoutFraction = spec.serverFINs
		// The scan is the unsolicited traffic. trafficgen's background
		// radiation draws sources from the whole address space, and one
		// inside 10.0.0.0/8 would classify as outgoing.
		cfg.NoiseFraction = 0
		legit, err := trafficgen.NewGenerator(cfg)
		if err != nil {
			g.close()
			return nil, err
		}
		g.legit = append(g.legit, startFeed(legit))
		g.pending = append(g.pending, packet.Packet{})
		g.pull(i)
	}
	g.nextProbe = spec.probeFrom + g.expGap()
	return g, nil
}

func usec(d time.Duration) time.Duration { return d.Truncate(time.Microsecond) }

func (g *wireGen) pull(i int) {
	pkt, ok := g.legit[i].next()
	if !ok {
		pkt.Time = math.MaxInt64
	}
	pkt.Time = usec(pkt.Time)
	g.pending[i] = pkt
}

// close stops the generators' goroutines and waits for them to end.
func (g *wireGen) close() {
	for _, f := range g.legit {
		f.stop()
	}
}

// feed runs one trafficgen generator on its own goroutine and hands its
// packets over in chunks.
type feed struct {
	chunks chan []packet.Packet
	free   chan []packet.Packet
	done   chan struct{}
	cur    []packet.Packet // chunk being read
	pos    int
}

const (
	feedChunk   = 4096
	feedBuffers = 4
)

func startFeed(gen *trafficgen.Generator) *feed {
	f := &feed{
		chunks: make(chan []packet.Packet, feedBuffers),
		free:   make(chan []packet.Packet, feedBuffers),
		done:   make(chan struct{}),
	}
	for i := 0; i < feedBuffers; i++ {
		f.free <- make([]packet.Packet, 0, feedChunk)
	}
	go func() {
		defer close(f.chunks)
		for {
			var buf []packet.Packet
			select {
			case buf = <-f.free:
			case <-f.done:
				return
			}
			if buf = gen.NextBatch(buf); len(buf) == 0 {
				return
			}
			select {
			case f.chunks <- buf:
			case <-f.done:
				return
			}
		}
	}()
	return f
}

func (f *feed) next() (packet.Packet, bool) {
	for f.pos == len(f.cur) {
		if f.cur != nil {
			f.free <- f.cur[:0]
		}
		var ok bool
		f.cur, ok = <-f.chunks
		f.pos = 0
		if !ok {
			return packet.Packet{}, false
		}
	}
	f.pos++
	return f.cur[f.pos-1], true
}

// stop ends the goroutine and waits for it.
func (f *feed) stop() {
	close(f.done)
	for range f.chunks {
	}
}

func (g *wireGen) expGap() time.Duration {
	return time.Duration(g.rng.ExpFloat64() / g.spec.probesPerSec * float64(time.Second))
}

// probe draws one scan packet: a random remote source outside
// 10.0.0.0/8, so classification never mistakes it for a client, aimed at
// a random address of a random client subnet.
func (g *wireGen) probe(t time.Duration) packet.Packet {
	subnet := g.spec.clients[g.rng.IntN(len(g.spec.clients))]
	src := packet.Addr(g.rng.Uint32() | 1)
	for byte(src>>24) == 10 || src == ^packet.Addr(0) {
		src = packet.Addr(g.rng.Uint32() | 1)
	}
	pkt := packet.Packet{
		Time: t,
		Tuple: packet.Tuple{
			Src:     src,
			SrcPort: uint16(1 + g.rng.IntN(65535)),
			Dst:     subnet.Nth(g.rng.Uint64N(subnet.Size())),
			DstPort: uint16(1 + g.rng.IntN(65535)),
			Proto:   packet.TCP,
		},
		Dir:    packet.Incoming,
		Flags:  packet.SYN,
		Length: 60,
	}
	if g.rng.Float64() < g.spec.udpShare {
		pkt.Tuple.Proto, pkt.Flags = packet.UDP, 0
	}
	return pkt
}

// next returns the next packet of the stream and its label. A legitimate
// incoming packet is labeled against the last outgoing packet of its
// flow.
func (g *wireGen) next() (packet.Packet, uint8) {
	first := 0
	for i := range g.pending {
		if g.pending[i].Time < g.pending[first].Time {
			first = i
		}
	}
	// Probe times run in nanoseconds and are truncated on the way out;
	// truncating the gaps instead would speed the scan up.
	if t := usec(g.nextProbe); t < g.pending[first].Time {
		g.nextProbe += g.expGap()
		return g.probe(t), clsProbe
	}
	pkt := g.pending[first]
	g.pull(first)
	if pkt.Dir == packet.Outgoing {
		g.lastOut[pkt.Tuple] = pkt.Time
		return pkt, clsOut
	}
	if last, ok := g.lastOut[pkt.Tuple.Reverse()]; ok && pkt.Time-last <= g.prompt {
		return pkt, clsReply
	}
	return pkt, clsLate
}

// streamRing is the stream-24 input: a ring of pre-built packets, one
// timestamp step apart, replayed lap after lap with timestamps shifted by
// one lap span each time. Flows are distinct within a lap, and the lap is
// longer than k·Δt, so a flow recurring in the next lap finds its old
// marks expired: to the filter the replay is an endless stream of
// distinct flows.
type streamRing struct {
	pkts   []packet.Packet
	cls    []uint8
	step   time.Duration // timestamp spacing of consecutive packets
	lapLen time.Duration // timestamp shift per lap
}

// buildStreamRing lays out n slots. Each slot holds a probe
// (probeShare), a late reply (lateShare) or the outgoing packet of a new
// flow, whose prompt reply follows within 64 slots. A late reply answers
// the flow whose outgoing packet sits lateSlots[0..1) slots earlier,
// counting back around the lap: on every lap after the first it comes
// that long after the flow's previous mark.
func buildStreamRing(n int, step time.Duration, probeShare, lateShare float64, lateSlots [2]int, seed uint64) *streamRing {
	rng := rand.New(rand.NewPCG(seed, 0x57ea_0024))
	r := &streamRing{
		pkts:   make([]packet.Packet, n),
		cls:    make([]uint8, n),
		step:   step,
		lapLen: time.Duration(n) * step,
	}
	used := make([]bool, n)
	place := func(pos int, pkt packet.Packet, cls uint8) {
		for used[pos%n] {
			pos++
		}
		pos %= n
		used[pos] = true
		pkt.Time = time.Duration(pos) * step
		r.pkts[pos], r.cls[pos] = pkt, cls
	}
	client := func() packet.Addr { return packet.AddrFrom4(10, 0, 0, 0) | packet.Addr(rng.Uint32N(1<<24)) }
	remote := func() packet.Addr {
		for {
			a := packet.Addr(rng.Uint32() | 1)
			if byte(a>>24) != 10 && a != ^packet.Addr(0) {
				return a
			}
		}
	}
	// Prompt replies must stay inside the lap, so the tail only probes.
	const promptMax = 64
	var late []int
	for pos := 0; pos < n; pos++ {
		if used[pos] {
			continue
		}
		switch x := rng.Float64(); {
		case x < lateShare:
			used[pos], r.cls[pos] = true, clsLate
			late = append(late, pos)
		case pos >= n-2*promptMax || x < lateShare+probeShare:
			place(pos, packet.Packet{
				Tuple: packet.Tuple{Src: remote(), SrcPort: uint16(1 + rng.IntN(65535)), Dst: client(), DstPort: uint16(1 + rng.IntN(65535)), Proto: packet.TCP},
				Dir:   packet.Incoming, Flags: packet.SYN, Length: 60,
			}, clsProbe)
		default:
			tup := packet.Tuple{Src: client(), SrcPort: uint16(1024 + rng.IntN(64512)), Dst: remote(), DstPort: 443, Proto: packet.TCP}
			place(pos, packet.Packet{Tuple: tup, Dir: packet.Outgoing, Flags: packet.SYN, Length: 60}, clsOut)
			place(pos+1+rng.IntN(promptMax), packet.Packet{Tuple: tup.Reverse(), Dir: packet.Incoming, Flags: packet.SYN | packet.ACK, Length: 60}, clsReply)
		}
	}
	answered := make([]bool, n)
	for _, q := range late {
		j := ((q-lateSlots[0]-rng.IntN(lateSlots[1]-lateSlots[0]))%n + n) % n
		for r.cls[j] != clsOut || answered[j] {
			j = (j - 1 + n) % n
		}
		answered[j] = true
		r.pkts[q] = packet.Packet{
			Time:  time.Duration(q) * step,
			Tuple: r.pkts[j].Tuple.Reverse(),
			Dir:   packet.Incoming, Flags: packet.FIN | packet.ACK, Length: 60,
		}
	}
	return r
}
