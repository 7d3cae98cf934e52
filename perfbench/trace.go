package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"
)

// layer identifies the kind of a span. Spans are recorded by the
// benchmark around its calls into the repository's layers, never from
// inside them.
type layer int

const (
	lEnsemble layer = iota // ensemble.Process (selection, combine, publish)
	lCore                  // core.Sync.Process in the standalone engine pass
	lRequest               // one honest request: due time → reply's kernel RX stamp
	lGen                   // generator lateness: due time → send
	lNetIn                 // send → the relay's Receive stamp (kernel + RX queue)
	lServe                 // the relay's Receive → Transmit stamps
	lNetOut                // Transmit → the client's kernel RX stamp
	lClient                // kernel RX stamp → the client reads the reply
	lSample                // one SampleClock call inside the serving loop
	lScrape                // one /metrics scrape
	lPipeline              // socket-free Server.Serve over the datagram mix
	nLayers
)

var layerNames = [nLayers]string{
	"ensemble.process", "core.process",
	"request", "gen.late", "kernel.in", "serve", "kernel.out", "client.rx_dwell",
	"readout.sample", "metrics.scrape", "serve.pipeline",
}

// layerParent gives each layer's parent layer (-1 for roots): spans of
// a child layer nest inside a span of the parent, so the parent's self
// time is its total minus its children's.
var layerParent = [nLayers]layer{
	-1, -1,
	-1, lRequest, lRequest, lRequest, lRequest, -1,
	lServe, -1, -1,
}

// span is one recorded interval. Spans of one honest request share the
// request's cookie as id.
type span struct {
	layer      layer
	id         uint64
	start, end int64 // ns since the tracer's epoch
}

// maxSpans caps the spans kept for the trace file; aggregates count
// every span regardless.
const maxSpans = 1 << 20

// tracer keeps spans in memory and per-layer aggregates. A nil tracer
// records nothing. Safe for concurrent use.
type tracer struct {
	epoch time.Time
	spans []span
	next  atomic.Int64
	total [nLayers]atomic.Int64
	count [nLayers]atomic.Int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, maxSpans)}
}

// now returns ns since the tracer's epoch (monotonic); 0 on nil.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// at converts a wall-clock Unix ns stamp into the tracer's timebase.
func (t *tracer) at(unixNs int64) int64 { return unixNs - t.epoch.UnixNano() }

// span records one interval of layer l.
func (t *tracer) span(l layer, id uint64, start, end int64) {
	if t == nil {
		return
	}
	t.total[l].Add(end - start)
	t.count[l].Add(1)
	if i := t.next.Add(1) - 1; i < maxSpans {
		t.spans[i] = span{layer: l, id: id, start: start, end: end}
	}
}

// selfTable writes per-layer span counts, totals and self times (total
// minus the time of child-layer spans).
func (t *tracer) selfTable(w io.Writer) {
	var child [nLayers]int64
	for l := layer(0); l < nLayers; l++ {
		if p := layerParent[l]; p >= 0 {
			child[p] += t.total[l].Load()
		}
	}
	fmt.Fprintf(w, "%-18s %10s %12s %12s %10s\n", "layer", "spans", "total_ms", "self_ms", "mean_us")
	for l := layer(0); l < nLayers; l++ {
		n := t.count[l].Load()
		if n == 0 {
			continue
		}
		tot := t.total[l].Load()
		fmt.Fprintf(w, "%-18s %10d %12.3f %12.3f %10.3f\n", layerNames[l], n,
			float64(tot)/1e6, float64(tot-child[l])/1e6, float64(tot)/float64(n)/1e3)
	}
}

// write dumps the kept spans as tab-separated rows: name, id, parent
// layer, start and end in ns since the epoch.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tid\tparent\tstart_ns\tend_ns")
	n := min(t.next.Load(), maxSpans)
	for _, s := range t.spans[:n] {
		parent := "-"
		if p := layerParent[s.layer]; p >= 0 {
			parent = layerNames[p]
		}
		fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%d\n", layerNames[s.layer], s.id, parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
