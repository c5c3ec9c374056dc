package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its calls into the layers (spans inside the program
// are a later change). Times are microseconds since the Unix epoch, so
// spans of different child processes share one clock.
type span struct {
	ID     int `json:"id"`
	Parent int `json:"parent"` // 0 = root
	// Lane separates spans that overlap under one parent (the two
	// serve-mix clients), so a trace viewer draws them side by side.
	Lane  int               `json:"lane,omitempty"`
	Name  string            `json:"name"`
	Start int64             `json:"start_us"`
	End   int64             `json:"end_us"`
	Args  map[string]string `json:"args,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how an untraced run pays nothing for it.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its ID (0 on a nil recorder).
func (r *recorder) add(parent, lane int, name string, start, end time.Time, args map[string]string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Lane: lane, Name: name,
		Start: start.UnixMicro(), End: end.UnixMicro(), Args: args})
	return id
}

// open records a span whose end is not known yet; close sets it. The
// ID is valid as a parent at once, so children recorded from callbacks
// during the call can point at it.
func (r *recorder) open(parent int, name string, start time.Time) int {
	return r.add(parent, 0, name, start, start, nil)
}

func (r *recorder) close(id int, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = end.UnixMicro()
	r.mu.Unlock()
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover, in microseconds. Children
// may overlap each other (concurrent requests), so the covered part is
// the length of the union of the child intervals clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		var covered int64
		cursor := s.Start
		for _, iv := range ivs {
			lo, hi := max(iv[0], cursor), min(iv[1], s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// spanSummary is one row of the per-name table printed after a traced
// run: how often the span occurred, its total time and its self time.
type spanSummary struct {
	name          string
	count         int
	totalS, selfS float64
}

// summarize groups spans by name in first-seen order.
func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	idx := map[string]int{}
	var rows []spanSummary
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(rows)
			idx[s.Name] = i
			rows = append(rows, spanSummary{name: s.Name})
		}
		rows[i].count++
		rows[i].totalS += float64(s.End-s.Start) / 1e6
		rows[i].selfS += float64(self[s.ID]) / 1e6
	}
	return rows
}

// chromeEvent is one complete ("X") event of the Chrome trace format,
// which chrome://tracing and Perfetto both load.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// writeChromeTrace writes the spans of each process (one per workload)
// as a Chrome trace file. Span and parent IDs ride in args, so the
// causal tree survives the format.
func writeChromeTrace(path string, procs [][]span) error {
	events := []chromeEvent{}
	for pid, spans := range procs {
		for _, s := range spans {
			args := map[string]string{"id": fmt.Sprint(s.ID), "parent": fmt.Sprint(s.Parent)}
			for k, v := range s.Args {
				args[k] = v
			}
			events = append(events, chromeEvent{Name: s.Name, Cat: "bench", Ph: "X",
				TS: s.Start, Dur: s.End - s.Start, PID: pid + 1, TID: s.Lane, Args: args})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
