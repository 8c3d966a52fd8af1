package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

var childNames = [nSpans]string{"capture.read", "packet.decode", "", "driver.account"}

func spanName(i int, filterName string) string {
	if i == spanFilter {
		return filterName
	}
	return childNames[i]
}

// onPath reports whether child span i is on the workload's timed path.
func onPath(i int, wire bool) bool { return wire || i == spanFilter || i == spanAccount }

// spanLayers derives the per-layer metrics of the traced phase from its
// spans and prints the per-layer table: calls, total and self time.
func spanLayers(m metrics, spans []span, wire bool, filterName string, fails *checks, log io.Writer) error {
	if len(spans) == 0 {
		return fmt.Errorf("traced phase recorded no spans")
	}
	var frames, batchNs int64
	var childNs [nSpans]int64
	for i := range spans {
		sp := &spans[i]
		frames += int64(sp.frames)
		batchNs += sp.end - sp.start
		var sum int64
		for c := 0; c < nSpans; c++ {
			if !onPath(c, wire) {
				continue
			}
			d := sp.child[c][1] - sp.child[c][0]
			fails.expect(d >= 0 && sp.child[c][0] >= sp.start && sp.child[c][1] <= sp.end,
				"batch %d: span %s [%d, %d) lies outside its batch [%d, %d)", i, spanName(c, filterName), sp.child[c][0], sp.child[c][1], sp.start, sp.end)
			childNs[c] += d
			sum += d
		}
		fails.expect(sum <= sp.end-sp.start, "batch %d: child spans add up to more than the batch", i)
	}
	perFrame := func(ns int64) float64 { return float64(ns) / float64(frames) }
	var children int64
	for c := 0; c < nSpans; c++ {
		if !onPath(c, wire) {
			continue
		}
		children += childNs[c]
		switch c {
		case spanRead:
			m.set("capture.read_ns_per_frame", "ns", perFrame(childNs[c]))
		case spanDecode:
			m.set("packet.decode_ns_per_frame", "ns", perFrame(childNs[c]))
		case spanFilter:
			m.set(filterName+"_ns_per_pkt", "ns", perFrame(childNs[c]))
		case spanAccount:
			m.set("driver.account_ns_per_frame", "ns", perFrame(childNs[c]))
		}
	}
	self := batchNs - children
	m.set("driver.batch_ns_per_frame", "ns", perFrame(batchNs))
	m.set("driver.self_ns_per_frame", "ns", perFrame(self))

	fmt.Fprintf(log, "%-16s %10s %12s %14s %8s\n", "span", "calls", "total_ms", "self_ns/frame", "share")
	row := func(name string, ns int64) {
		fmt.Fprintf(log, "%-16s %10d %12.3f %14.3f %7.2f%%\n", name, len(spans), float64(ns)/1e6, perFrame(ns), 100*float64(ns)/float64(batchNs))
	}
	for c := 0; c < nSpans; c++ {
		if onPath(c, wire) {
			row(spanName(c, filterName), childNs[c])
		}
	}
	row("driver.self", self)
	row("batch", batchNs)
	fmt.Fprintf(log, "frames %d, trace.overhead_ratio %.4f\n", frames, m["trace.overhead_ratio"].Value)
	return nil
}

// writeSpans writes every span of the traced phase as tab-separated
// values: batch id, span, parent, start and duration (ns, relative to the
// first batch) and the batch's frame count.
func writeSpans(path string, spans []span, wire bool, filterName string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "batch\tspan\tparent\tstart_ns\tdur_ns\tframes")
	t0 := spans[0].start
	for i := range spans {
		sp := &spans[i]
		fmt.Fprintf(w, "%d\tbatch\t-\t%d\t%d\t%d\n", i, sp.start-t0, sp.end-sp.start, sp.frames)
		for c := 0; c < nSpans; c++ {
			if onPath(c, wire) {
				fmt.Fprintf(w, "%d\t%s\tbatch\t%d\t%d\t%d\n", i, spanName(c, filterName), sp.child[c][0]-t0, sp.child[c][1]-sp.child[c][0], sp.frames)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
