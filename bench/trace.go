package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
)

// span is one timed interval at a layer boundary, recorded by the
// harness around its call into the layer. Spans of one operation share
// (Tenant, Iter); Parent is the ID of the span that caused this one (-1
// for a root). Times are nanoseconds since process start.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Tenant int    `json:"tenant"`
	Iter   int    `json:"iter"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// spanLog keeps every span in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its ID.
func (l *spanLog) add(name string, parent, tenant, iter int, start, end int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Tenant: tenant, Iter: iter, Start: start, End: end})
	return id
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its direct children cover.
func selfTimes(spans []span) map[string]int64 {
	covered := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		self[s.Name] += s.End - s.Start - covered[s.ID]
	}
	return self
}

// write stores the spans as JSONL under dir.
func (l *spanLog) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
