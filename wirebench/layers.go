package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/hashfam"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/pcap"
	"bitmapfilter/internal/resilience"
	"bitmapfilter/internal/tenant"
)

// Isolated layer runs repeat until they have taken at least layerTime.
const layerTime = 250 * time.Millisecond

var layerSink uint64

// judgeAll runs pkts through bf in batches.
func judgeAll(bf filtering.BatchFilter, pkts []packet.Packet, out []filtering.Verdict) []filtering.Verdict {
	for off := 0; off < len(pkts); off += batchSize {
		out = bf.ProcessBatchInto(pkts[off:min(off+batchSize, len(pkts))], out)
	}
	return out
}

// coreLayers measures hashing, marking, lookup and rotation in isolation
// on a filter of the workload's geometry, over the workload's packets.
func coreLayers(m metrics, geom []core.Option, sample []packet.Packet) error {
	build := func() *core.Filter {
		f, err := core.Build(geom...)
		if err != nil {
			panic(err)
		}
		return f.(*core.Filter)
	}
	var outs, ins []packet.Packet
	los := make([]uint64, 0, len(sample))
	his := make([]uint64, 0, len(sample))
	for _, p := range sample {
		var lo, hi uint64
		if p.Dir == packet.Outgoing {
			outs = append(outs, p)
			lo, hi = p.Tuple.OutgoingKeyWords()
		} else {
			ins = append(ins, p)
			lo, hi = p.Tuple.IncomingKeyWords()
		}
		los, his = append(los, lo), append(his, hi)
	}
	if len(outs) == 0 || len(ins) == 0 {
		return fmt.Errorf("layer sample has %d outgoing and %d incoming packets", len(outs), len(ins))
	}

	// The filter's hash family: m=3 with the default seed.
	fam, err := hashfam.New(3, 0)
	if err != nil {
		return err
	}
	idx := make([]uint64, 0, 3)
	m.set("hashfam.indexes_ns_per_key", "ns", repeat(5, layerTime, nil, func() int {
		for i := range los {
			idx = fam.IndexesFixed(idx[:0], los[i], his[i], packet.KeySize)
			layerSink += idx[0]
		}
		return len(los)
	}))

	var f *core.Filter
	verdicts := make([]filtering.Verdict, 0, batchSize)
	m.set("core.mark_ns_per_pkt", "ns", repeat(5, layerTime, func() { f = build() }, func() int {
		verdicts = judgeAll(f, outs, verdicts)
		return len(outs)
	}))
	m.set("core.lookup_ns_per_pkt", "ns", repeat(5, layerTime, func() {
		f = build()
		verdicts = judgeAll(f, outs, verdicts)
	}, func() int {
		verdicts = judgeAll(f, ins, verdicts)
		return len(ins)
	}))

	// Each rotation clears a vector the previous marks filled.
	chunk := outs[:min(len(outs), 1<<16)]
	f = build()
	m.set("core.rotate_us", "us", repeat(15, 0, func() {
		verdicts = judgeAll(f, chunk, verdicts)
	}, func() int {
		f.Rotate()
		return 1
	})/1e3)
	return nil
}

// tenantLayer times tenant.Set.ProcessBatchInto over pkts on fresh sets
// built from config, and counts the distinct tenants each batch touches.
func tenantLayer(m metrics, config []byte, pkts []packet.Packet) error {
	cfg, err := tenant.ParseConfig(config)
	if err != nil {
		return err
	}
	var set *tenant.Set
	verdicts := make([]filtering.Verdict, 0, batchSize)
	var buildErr error
	m.set("tenant.filter_ns_per_pkt", "ns", repeat(5, layerTime, func() {
		set, err = tenant.NewSet(cfg)
		if err != nil {
			buildErr = err
		}
	}, func() int {
		if set == nil {
			return 0
		}
		verdicts = judgeAll(set, pkts, verdicts)
		return len(pkts)
	}))
	return buildErr
}

// fleetCoreLayer times the per-tenant core filters alone: each batch is
// grouped by tenant outside the timed span, then every group goes through
// its own filter, as tenant.Set dispatches it.
func fleetCoreLayer(m metrics, geom []core.Option, tenants int, pkts []packet.Packet, tenantOf func(*packet.Packet) int) error {
	type group struct {
		tenant   int
		from, to int
	}
	grouped := make([]packet.Packet, 0, len(pkts))
	var groups []group
	for off := 0; off < len(pkts); off += batchSize {
		batch := pkts[off:min(off+batchSize, len(pkts))]
		for t := 0; t < tenants; t++ {
			from := len(grouped)
			for i := range batch {
				if tenantOf(&batch[i]) == t {
					grouped = append(grouped, batch[i])
				}
			}
			if len(grouped) > from {
				groups = append(groups, group{t, from, len(grouped)})
			}
		}
	}
	filters := make([]*core.Filter, tenants)
	verdicts := make([]filtering.Verdict, 0, batchSize)
	var buildErr error
	m.set("core.filter_ns_per_pkt", "ns", repeat(5, layerTime, func() {
		for i := range filters {
			f, err := core.Build(geom...)
			if err != nil {
				buildErr = err
				return
			}
			filters[i] = f.(*core.Filter)
		}
	}, func() int {
		if buildErr != nil {
			return 0
		}
		for _, g := range groups {
			verdicts = filters[g.tenant].ProcessBatchInto(grouped[g.from:g.to], verdicts)
		}
		return len(grouped)
	}))
	return buildErr
}

// wireLayers times capture.read and packet.decode in isolation over the
// workload's packets encoded to a pcap: for stream-24, whose own path has
// no wire.
func wireLayers(m metrics, pkts []packet.Packet, subnets []packet.Prefix) error {
	var buf bytes.Buffer
	pw, err := pcap.NewWriter(&buf)
	if err != nil {
		return err
	}
	for _, p := range pkts {
		frame, err := packet.Encode(p)
		if err != nil {
			return err
		}
		if err := pw.WriteRecord(pcap.Record{Time: p.Time, Data: frame}); err != nil {
			return err
		}
	}
	data := buf.Bytes()
	src, err := resilience.NewSupervisor(resilience.SupervisorConfig{
		Open: func() (capture.Source, error) { return capture.NewReplay(bytes.NewReader(data), math.MaxInt32) },
	})
	if err != nil {
		return err
	}
	defer src.Close()
	run := &wireRun{subnets: subnets}
	ring := capture.NewRing(batchSize, capture.DefaultSnapLen)
	var pkt packet.Packet
	var frames, readNs, decodeNs int64
	for readNs+decodeNs < int64(2*layerTime) {
		t0 := nanotime()
		n, err := src.ReadBatch(ring)
		t1 := nanotime()
		if err != nil {
			return err
		}
		for i := range ring[:n] {
			if packet.DecodeInto(&pkt, ring[i].Data) == nil && run.inside(pkt.Tuple.Src) {
				layerSink++
			}
		}
		t2 := nanotime()
		frames += int64(n)
		readNs += t1 - t0
		decodeNs += t2 - t1
	}
	m.set("capture.read_ns_per_frame", "ns", float64(readNs)/float64(frames))
	m.set("packet.decode_ns_per_frame", "ns", float64(decodeNs)/float64(frames))
	return nil
}

// singleTenantConfig is a one-tenant fleet covering all of 10.0.0.0/8 at
// the given geometry: what the fleet's dispatch would add to a
// single-filter workload.
func singleTenantConfig(order uint, dt time.Duration) []byte {
	return []byte(fmt.Sprintf(`{"tenants": [{"id": "all", "prefix": "10.0.0.0/8", "order": %d, "vectors": 4, "hashes": 3, "rotate": "%v"}]}`, order, dt))
}

func (w *wireBench) layers(m metrics) error {
	sample := w.sample
	if w.tenants > 0 {
		// One tenant's share of the traffic, so the isolated filter sees
		// a tenant's fill, not the whole fleet's.
		sample = nil
		for i := range w.sample {
			if w.tenantOf(&w.sample[i]) == 0 {
				sample = append(sample, w.sample[i])
			}
		}
	}
	if err := coreLayers(m, w.geometry(), sample); err != nil {
		return err
	}
	if w.tenants > 0 {
		return fleetCoreLayer(m, w.geometry(), w.tenants, w.sample, w.tenantOf)
	}
	return tenantLayer(m, singleTenantConfig(w.order, w.dt), w.sample)
}

func (s *streamBench) layers(m metrics) error {
	s.rebase()
	sample := s.ring.pkts[:1<<20]
	if err := coreLayers(m, s.geometry(), sample); err != nil {
		return err
	}
	if err := tenantLayer(m, singleTenantConfig(s.order, s.rotateEvery()), sample); err != nil {
		return err
	}
	all, err := packet.ParsePrefix("10.0.0.0/8")
	if err != nil {
		return err
	}
	return wireLayers(m, sample[:1<<16], []packet.Prefix{all})
}
