package main

import "time"

// span is one timed call from the benchmark into the program. Spans of
// one repetition share the repetition's root span as parent.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`   // -1 for a root span
	Start  int64  `json:"start_ns"` // since the log was created
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced repetitions pay only a nil check.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Start: time.Since(l.t0).Nanoseconds()})
	return id
}

func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	l.spans[id].End = time.Since(l.t0).Nanoseconds()
}
