package serve

// HTTP surface of the daemon. The Server owns no listener — cmd/crawld (or
// a test's httptest.Server) binds Handler() wherever it wants — and every
// endpoint speaks the JSON types in api.go:
//
//	POST   /v1/sessions              create or attach (idempotent by tenant+name)
//	GET    /v1/sessions[?tenant=t]   list sessions
//	GET    /v1/sessions/{id}         status; ?seq=N&wait=5s long-polls
//	GET    /v1/sessions/{id}/events  ndjson stream of status changes
//	DELETE /v1/sessions/{id}         cancel
//	GET    /v1/hosts                 politeness registry usage
//	GET    /v1/stats                 daemon snapshot

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"sbcrawl/internal/codec"
)

// maxWait caps a long-poll so dead clients cannot pin handlers forever.
const maxWait = 60 * time.Second

// maxSpecBytes caps a POST /v1/sessions body, about 10k sites of spec, so
// one oversized request cannot make the daemon allocate its whole size.
const maxSpecBytes = 1 << 20

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("GET /v1/sessions", s.handleList)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/sessions/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/hosts", s.handleHosts)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeErr maps an error onto the API envelope: typed *Error as-is,
// anything else as a 500.
func writeErr(w http.ResponseWriter, err error) {
	var apiErr *Error
	if !errors.As(err, &apiErr) {
		apiErr = &Error{Status: http.StatusInternalServerError, Code: "internal", Message: err.Error()}
	}
	writeJSON(w, apiErr.Status, apiErr)
}

// decodeJSON reads r to its end into a pooled codec buffer and unmarshals
// the one JSON value there into out; anything but whitespace after that
// value is an error. json.Unmarshal copies every string it keeps, so out
// holds nothing of the buffer, which is back in the pool when decodeJSON
// returns. Every body of the API is read this way (request specs, responses,
// error envelopes) except the events stream, a sequence of values a client
// reads line by line.
func decodeJSON(r io.Reader, out any) error {
	buf := codec.GetBuffer()
	defer codec.PutBuffer(buf)
	b := bytes.NewBuffer(*buf)
	_, err := b.ReadFrom(r)
	*buf = b.Bytes()
	if err != nil {
		return err
	}
	return json.Unmarshal(*buf, out)
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec SessionSpec
	if err := decodeJSON(http.MaxBytesReader(w, r.Body, maxSpecBytes), &spec); err != nil {
		writeErr(w, errInvalid("bad session spec: %v", err))
		return
	}
	st, err := s.Create(spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List(r.URL.Query().Get("tenant")))
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var (
		after uint64
		wait  time.Duration
	)
	if v := q.Get("seq"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErr(w, errInvalid("bad seq %q", v))
			return
		}
		after = n
	}
	if v := q.Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			writeErr(w, errInvalid("bad wait %q", v))
			return
		}
		wait = min(d, maxWait)
	}
	st, err := s.Wait(r.Context(), r.PathValue("id"), after, wait)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams the session as newline-delimited JSON: the current
// status immediately, then one line per change, ending after the terminal
// status or when the client goes away.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(r.PathValue("id"))
	if sess == nil {
		writeErr(w, errNotFound(r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var seen uint64
	for {
		st := sess.wait(r.Context(), seen, maxWait)
		if st.Seq > seen || st.Done() {
			if enc.Encode(st) != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			seen = st.Seq
		}
		if st.Done() || r.Context().Err() != nil {
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleHosts(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Hosts())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
