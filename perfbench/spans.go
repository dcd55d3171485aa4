package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"rubin/internal/kvstore"
)

// span is one timed call the benchmark made into the program, on the
// wall clock. Parent is the index+1 of the enclosing span (0 = none).
type span struct {
	Name   string
	Start  int64 // ns since the log's origin
	End    int64
	Parent int
	ReqID  string
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog is
// the untraced state: every method is a no-op.
type spanLog struct {
	origin time.Time
	spans  []span
	// stack holds the open spans; the innermost is the parent of the
	// next span begun.
	stack []int
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span and returns its handle (index+1). The innermost
// open span becomes its parent.
func (l *spanLog) begin(name string) int {
	if l == nil {
		return 0
	}
	parent := 0
	if len(l.stack) > 0 {
		parent = l.stack[len(l.stack)-1]
	}
	l.spans = append(l.spans, span{Name: name, Start: int64(time.Since(l.origin)), Parent: parent})
	h := len(l.spans)
	l.stack = append(l.stack, h)
	return h
}

func (l *spanLog) end(h int) {
	if l == nil || h == 0 {
		return
	}
	l.spans[h-1].End = int64(time.Since(l.origin))
	for i := len(l.stack) - 1; i >= 0; i-- {
		if l.stack[i] == h {
			l.stack = append(l.stack[:i], l.stack[i+1:]...)
			break
		}
	}
}

// endID closes a span and records the request id the call returned.
func (l *spanLog) endID(h int, reqID string) {
	if l == nil || h == 0 {
		return
	}
	l.spans[h-1].ReqID = reqID
	l.end(h)
}

// spanStat sums the spans of one name.
type spanStat struct {
	Count int
	Total time.Duration // summed durations
	Self  time.Duration // summed durations minus what child spans cover
}

// stats folds the log into per-name totals and self times. A span's
// self time is its duration minus the union of its children's
// intervals.
func (l *spanLog) stats() map[string]spanStat {
	children := make(map[int][][2]int64)
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]spanStat)
	for i, s := range l.spans {
		dur := s.End - s.Start
		st := out[s.Name]
		st.Count++
		st.Total += time.Duration(dur)
		st.Self += time.Duration(dur - covered(children[i+1], s.Start, s.End))
		out[s.Name] = st
	}
	return out
}

// covered returns how much of [start, end] the intervals cover.
func covered(iv [][2]int64, start, end int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	cur := start
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], end)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// write stores the spans as one JSON object per line.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for i, s := range l.spans {
		fmt.Fprintf(bw, "{\"id\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%q}\n",
			i+1, s.Name, s.Start, s.End, s.Parent, s.ReqID)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedStore is the application every replica runs: a *kvstore.Store
// whose application calls are timed into the span log. Embedding keeps
// TentativeReader, StateTransferable and PartitionedState satisfied, so
// the protocol takes the same paths as with a bare store.
type tracedStore struct {
	*kvstore.Store
	spans *spanLog
}

func (a *tracedStore) Execute(op []byte) []byte {
	defer a.spans.end(a.spans.begin("kvstore.Execute"))
	return a.Store.Execute(op)
}

func (a *tracedStore) ExecuteReadOnly(op []byte) []byte {
	defer a.spans.end(a.spans.begin("kvstore.ExecuteReadOnly"))
	return a.Store.ExecuteReadOnly(op)
}

func (a *tracedStore) MarshalState() []byte {
	defer a.spans.end(a.spans.begin("kvstore.MarshalState"))
	return a.Store.MarshalState()
}

func (a *tracedStore) MarshalPartition(part int) []byte {
	defer a.spans.end(a.spans.begin("kvstore.MarshalPartition"))
	return a.Store.MarshalPartition(part)
}

func (a *tracedStore) ApplyTransfer(header []byte, parts [][]byte) error {
	defer a.spans.end(a.spans.begin("kvstore.ApplyTransfer"))
	return a.Store.ApplyTransfer(header, parts)
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}
