package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"minicost/internal/agentserver"
)

// Span names. Client spans are the harness's requests; agentserver and
// online spans come from wrappers around the public handler and tap. The
// handler gives no boundary between its JSON decode and Server.Observe, so
// the middleware re-times the decode on the request's bytes, on the
// handler's goroutine right before the handler runs; decode_and_observe is
// the handler's time to its response header, and ingest is reported as that
// minus the re-timed decode.
const (
	spanClientObserve  = "client.observe"
	spanClientPlan     = "client.plan"
	spanClientPlanRead = "client.plan.read"
	spanClientPlanDec  = "client.plan.decode"
	spanObserveHandler = "agentserver.observe.handler"
	spanObserveDecode  = "agentserver.observe.decode"
	spanObservePre     = "agentserver.observe.decode_and_observe"
	spanPlanHandler    = "agentserver.plan.handler"
	spanPlanBuild      = "agentserver.plan.build"
	spanPlanEncode     = "agentserver.plan.encode"
	spanPlanWrite      = "agentserver.plan.write"
	spanTap            = "online.tap"
	spanDecide         = "rl.decide"
	spanEpoch          = "online.epoch"
)

// Request headers carrying the client span to the server-side wrappers.
const (
	hdrSpan   = "X-Perfbench-Span"
	hdrDay    = "X-Perfbench-Day"
	hdrRetime = "X-Perfbench-Retime"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder started; spans of one request share its client span as
// Parent (the client span is its own root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Day    int32  `json:"day"`
	Rows   int32  `json:"rows,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() float64 { return float64(s.End - s.Start) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
	// batchOwner maps an observe batch's first file ID to its client span,
	// so the tap wrapper (which sees only the files) can name its parent.
	batchOwner sync.Map
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64           { return int64(time.Since(r.t0)) }
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.t0)) }
func (r *recorder) newID() uint64        { return r.ids.Add(1) }
func (r *recorder) add(s span)           { r.mu.Lock(); r.spans = append(r.spans, s); r.mu.Unlock() }
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// timingWriter notes when the handler first asks for the response headers
// (the server's handlers do so right after Server.Observe or
// Server.BuildPlan returns, before encoding) and when it writes the body.
type timingWriter struct {
	http.ResponseWriter
	rec               *recorder
	headerAt, writeAt int64
	writeEnd          int64
	bytes             int64
}

func (w *timingWriter) Header() http.Header {
	if w.headerAt == 0 {
		w.headerAt = w.rec.now()
	}
	return w.ResponseWriter.Header()
}

func (w *timingWriter) Write(p []byte) (int, error) {
	if w.writeAt == 0 {
		w.writeAt = w.rec.now()
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	w.writeEnd = w.rec.now()
	return n, err
}

// middleware times Handler().ServeHTTP and splits it at the header and
// write boundaries: for a plan, build / encode / write; for an observe,
// everything before the response header is decode plus Server.Observe.
func (r *recorder) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, _ := strconv.ParseUint(req.Header.Get(hdrSpan), 10, 64)
		day, _ := strconv.Atoi(req.Header.Get(hdrDay))
		base := span{Parent: parent, Day: int32(day)}
		if req.URL.Path == "/v1/observe" {
			// Read the body first so the handler span leaves out the
			// network read, and re-time the decode when asked.
			body, err := io.ReadAll(req.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			req.Body = io.NopCloser(bytes.NewReader(body))
			if req.Header.Get(hdrRetime) != "" {
				var again agentserver.ObserveRequest
				s := base
				s.Start = r.now()
				err := json.NewDecoder(bytes.NewReader(body)).Decode(&again)
				s.End = r.now()
				if err == nil {
					s.ID, s.Name, s.Rows = r.newID(), spanObserveDecode, int32(len(again.Files))
					r.add(s)
				}
			}
		}
		tw := &timingWriter{ResponseWriter: w, rec: r}
		start := r.now()
		next.ServeHTTP(tw, req)
		end := r.now()
		switch req.URL.Path {
		case "/v1/observe":
			s := base
			s.ID, s.Name, s.Start, s.End = r.newID(), spanObserveHandler, start, end
			r.add(s)
			if tw.headerAt > 0 {
				s = base
				s.ID, s.Name, s.Start, s.End = r.newID(), spanObservePre, start, tw.headerAt
				r.add(s)
			}
		case "/v1/plan":
			s := base
			s.ID, s.Name, s.Start, s.End, s.Bytes = r.newID(), spanPlanHandler, start, end, tw.bytes
			r.add(s)
			if tw.headerAt > 0 && tw.writeAt > 0 {
				for _, c := range []span{
					{Name: spanPlanBuild, Start: start, End: tw.headerAt},
					{Name: spanPlanEncode, Start: tw.headerAt, End: tw.writeAt},
					{Name: spanPlanWrite, Start: tw.writeAt, End: tw.writeEnd, Bytes: tw.bytes},
				} {
					c.ID, c.Parent, c.Day = r.newID(), parent, int32(day)
					r.add(c)
				}
			}
		}
	})
}

// tracedTap wraps the learner's observe tap.
type tracedTap struct {
	rec  *recorder
	next agentserver.ObserveTap
}

func (r *recorder) tap(next agentserver.ObserveTap) agentserver.ObserveTap {
	return &tracedTap{rec: r, next: next}
}

func (t *tracedTap) TapObserve(day int64, files []agentserver.FileObservation) {
	start := t.rec.now()
	t.next.TapObserve(day, files)
	end := t.rec.now()
	s := span{ID: t.rec.newID(), Name: spanTap, Rows: int32(len(files)), Start: start, End: end}
	if len(files) > 0 {
		if v, ok := t.rec.batchOwner.Load(files[0].ID); ok {
			owner := v.(span)
			s.Parent, s.Day = owner.ID, owner.Day
		}
	}
	t.rec.add(s)
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
