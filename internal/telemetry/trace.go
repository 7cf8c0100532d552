package telemetry

import (
	"encoding/json"
	"time"
)

// Span is one node of a query trace: a named, timed region with ordered
// key/value attributes and child spans. Spans are built by the single
// goroutine executing the traced operation and only shared after Finish,
// so they need no internal locking; the serving path creates one trace
// per request.
//
// A nil *Span is a valid no-op receiver for every method, which lets
// instrumented code thread an optional span without nil checks at every
// site. The call's arguments are still evaluated, though: SetAttr's value
// is boxed into an any, often on the heap, before the nil check runs, so
// a hot path guards its attribute writes with a nil check of its own.
type Span struct {
	name     string
	start    time.Time
	end      time.Time
	attrs    []Attr
	children []*Span
}

// Attr is one span attribute.
type Attr struct {
	Key   string
	Value any // int, int64, float64, bool or string
}

// StartSpan begins a new root span.
func StartSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Child starts a sub-span; finish it before (or when) the parent
// finishes.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.children = append(s.children, c)
	return c
}

// SetAttr appends one attribute.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// Finish stamps the span's end time (idempotent: the first call wins).
// Unfinished children are finished with the parent's end time.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	if s.end.IsZero() {
		s.end = time.Now()
	}
	for _, c := range s.children {
		if c.end.IsZero() {
			c.end = s.end
		}
	}
}

// Name returns the span name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns end-start (0 while unfinished).
func (s *Span) Duration() time.Duration {
	if s == nil || s.end.IsZero() {
		return 0
	}
	return s.end.Sub(s.start)
}

// Children returns the sub-spans in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	return s.children
}

// Attrs returns the attributes in insertion order.
// Kept: test seam: trace tests read a span's attributes.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	return s.attrs
}

// Attr returns the value of the first attribute with the given key, or
// nil.
func (s *Span) Attr(key string) any {
	if s == nil {
		return nil
	}
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// spanJSON is the wire shape of a span tree.
type spanJSON struct {
	Name       string         `json:"name"`
	DurationNs int64          `json:"durationNs"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []spanJSON     `json:"children,omitempty"`
}

func (s *Span) toJSON() spanJSON {
	out := spanJSON{Name: s.name, DurationNs: s.Duration().Nanoseconds()}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range s.children {
		out.Children = append(out.Children, c.toJSON())
	}
	return out
}

// MarshalJSON renders the span tree as nested objects with name,
// durationNs, attrs and children.
func (s *Span) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	return json.Marshal(s.toJSON())
}
