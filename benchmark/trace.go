package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// spanKind names a span. Leaf spans wrap exactly one call into core; a tx
// span covers one transaction from its first begin to its final commit,
// retries included, and is the parent of every other span of it.
type spanKind uint8

const (
	spanTx spanKind = iota
	spanBegin
	spanRead
	spanScan
	spanWrite
	spanBody // a whole body that makes several calls (four of TATP's seven)
	spanCommit
	spanAbort
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"tx", "begin", "read", "scan", "write", "body", "commit", "abort"}

// span is one recorded interval; times are nanoseconds since the scheme
// run's epoch.
type span struct {
	start, end int64
	parent     int32 // index of the tx span in the same buffer; -1 on a tx span
	kind       spanKind
	typ        uint8 // transaction type index
}

// spanBuf is one worker's preallocated span array. Recording never
// allocates; when the array is full the worker stops tracing.
type spanBuf struct {
	spans []span
}

// spansPerTxMax bounds the spans of one traced transaction that the buffer
// must still have room for when the transaction starts: begin + steps +
// commit for a few attempts. Later attempts of a pathological retry chain
// go unrecorded.
const spansPerTxMax = 128

func (b *spanBuf) room() bool { return cap(b.spans)-len(b.spans) >= spansPerTxMax }

func (b *spanBuf) add(kind spanKind, typ uint8, parent int32, start, end int64) int32 {
	if len(b.spans) == cap(b.spans) {
		return -1
	}
	b.spans = append(b.spans, span{start: start, end: end, parent: parent, kind: kind, typ: typ})
	return int32(len(b.spans) - 1)
}

// traceFileTx is how many traced transactions per worker and scheme go to
// the trace file; the per-layer medians use every span recorded.
const traceFileTx = 200

// fileSpan is the trace file's span record. IDs are
// "<scheme>/<worker>/<index>"; a tx span has no parent.
type fileSpan struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	TxType string `json:"tx_type"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type traceFile struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Note     string     `json:"note"`
	Spans    []fileSpan `json:"spans"`
}

// addScheme converts the first traceFileTx transactions of every worker's
// buffer. Spans are recorded tx span first, children after, so a prefix cut
// at a tx span holds only whole transactions.
func (tf *traceFile) addScheme(scheme string, ws []*worker) {
	for _, w := range ws {
		id := func(i int32) string { return fmt.Sprintf("%s/%d/%d", scheme, w.id, i) }
		txs := 0
		for i, s := range w.spans.spans {
			if s.kind == spanTx {
				if txs == traceFileTx {
					break
				}
				txs++
			}
			fs := fileSpan{ID: id(int32(i)), Name: spanNames[s.kind], TxType: w.types[s.typ].name, Start: s.start, End: s.end}
			if s.parent >= 0 {
				fs.Parent = id(s.parent)
			}
			tf.Spans = append(tf.Spans, fs)
		}
	}
}

func (tf *traceFile) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(tf)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// spanMedians returns, per span kind, the median self time in nanoseconds
// over all workers' spans (0 where the kind never occurred). A leaf span has
// no children, so its self time is its duration; a tx span's self time is
// its duration minus its children's, which is the harness and the body's
// own key drawing.
func spanMedians(ws []*worker) [numSpanKinds]float64 {
	var durs [numSpanKinds][]float64
	for _, w := range ws {
		spans := w.spans.spans
		self := make([]int64, len(spans))
		for i, s := range spans {
			self[i] += s.end - s.start
			if s.parent >= 0 {
				self[s.parent] -= s.end - s.start
			}
		}
		for i, s := range spans {
			durs[s.kind] = append(durs[s.kind], float64(self[i]))
		}
	}
	var med [numSpanKinds]float64
	for k := range durs {
		sort.Float64s(durs[k])
		med[k] = quantileSorted(durs[k], 0.5)
	}
	return med
}
