package main

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// netCounters are the wire numbers of one listener group: bytes read and
// written by the server side of every accepted connection, and how many
// connections were accepted (= dials by the client under test).
type netCounters struct {
	In, Out, Conns uint64
}

func (a netCounters) sub(b netCounters) netCounters {
	return netCounters{In: a.In - b.In, Out: a.Out - b.Out, Conns: a.Conns - b.Conns}
}

func (a netCounters) bytes() uint64 { return a.In + a.Out }

type netCell struct{ in, out, conns atomic.Uint64 }

func (c *netCell) load() netCounters {
	return netCounters{In: c.in.Load(), Out: c.out.Load(), Conns: c.conns.Load()}
}

// countingListener counts bytes on harness-owned listeners. Loopback, not a
// link: the counts are what the protocol puts on the wire, not what a NIC
// would carry.
type countingListener struct {
	net.Listener
	cell *netCell
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.cell.conns.Add(1)
	return countingConn{Conn: c, cell: l.cell}, nil
}

type countingConn struct {
	net.Conn
	cell *netCell
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.cell.in.Add(uint64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.cell.out.Add(uint64(n))
	return n, err
}

// server is one harness-owned HTTP server on 127.0.0.1.
type server struct {
	URL  string
	srv  *http.Server
	done chan struct{}
}

// serve starts an HTTP server for h on a fresh loopback port, counting its
// bytes into cell.
func serve(h http.Handler, cell *netCell) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &server{
		URL:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(countingListener{Listener: ln, cell: cell}) // returns ErrServerClosed on Close
	}()
	return s, nil
}

// Close stops the server and waits for its accept loop to exit.
func (s *server) Close() {
	_ = s.srv.Close()
	<-s.done
}

// swapHandler lets a server be started before the handler it serves exists
// (cluster peers need each other's addresses first).
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// durations is a concurrency-safe sample sink for traced latencies (µs).
type durations struct {
	mu sync.Mutex
	us []float64
}

func (d *durations) add(dur time.Duration) {
	d.mu.Lock()
	d.us = append(d.us, float64(dur)/float64(time.Microsecond))
	d.mu.Unlock()
}

func (d *durations) values() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]float64(nil), d.us...)
}

// agentProbe is the handler middleware around agent.Handler(): it times
// every answer and classifies it by response size (a session MAC frame is
// under 128 bytes; a full quote never is). Installed in traced runs only.
type agentProbe struct {
	tr       *tracer
	answers  durations
	requests atomic.Uint64
	full     atomic.Uint64
}

type sizeWriter struct {
	http.ResponseWriter
	n int
}

func (w *sizeWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return w.ResponseWriter.Write(p)
}

func (p *agentProbe) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !p.tr.enabled() {
			h.ServeHTTP(w, r)
			return
		}
		sw := &sizeWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(sw, r)
		p.answers.add(time.Since(start))
		p.requests.Add(1)
		if sw.n >= 128 {
			p.full.Add(1)
		}
	})
}

// tracingTransport is the RoundTripper laid over the verifier's own pooled
// transport in traced runs: one span per request, parented to the span the
// PollAll context carries.
type tracingTransport struct {
	base     http.RoundTripper
	tr       *tracer
	rtts     durations
	requests atomic.Uint64
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.tr.enabled() {
		return t.base.RoundTrip(req)
	}
	_, end := t.tr.begin(req.Context(), "httppool.roundtrip")
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	t.rtts.add(time.Since(start))
	t.requests.Add(1)
	end()
	return resp, err
}
