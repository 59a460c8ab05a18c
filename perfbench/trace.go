package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one solve or request share
// req; parent is the index of the enclosing span, or -1 for a root.
type span struct {
	Name   string        `json:"name"`
	Req    int           `json:"req"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index.
func (r *recorder) begin(name string, req, parent int) int {
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: time.Since(r.epoch)})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	r.spans[i].End = time.Since(r.epoch)
}

// add records a span whose bounds were taken elsewhere, such as a duration
// a layer reports about itself.
func (r *recorder) add(name string, req, parent int, start, end time.Time) int {
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	return len(r.spans) - 1
}

func (r *recorder) dur(i int) time.Duration { return r.spans[i].End - r.spans[i].Start }

// totals sums span durations by name.
func (r *recorder) totals() map[string]time.Duration {
	t := make(map[string]time.Duration)
	for _, s := range r.spans {
		t[s.Name] += s.End - s.Start
	}
	return t
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
