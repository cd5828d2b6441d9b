package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// server is an HTTP server on a loopback port.
type server struct {
	srv  *http.Server
	done chan error
	URL  string
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: &http.Server{Handler: h}, done: make(chan error, 1), URL: "http://" + ln.Addr().String()}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for Serve to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

func closeClient(c *http.Client) {
	if t, ok := c.Transport.(interface{ CloseIdleConnections() }); ok {
		t.CloseIdleConnections()
	}
}

// countingTransport counts response body bytes received.
type countingTransport struct {
	base  http.RoundTripper
	bytes atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	return resp, nil
}

// CloseIdleConnections closes the underlying transport's idle
// connections.
func (t *countingTransport) CloseIdleConnections() {
	if c, ok := t.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// rssSampler tracks the process's peak resident set by sampling
// /proc/self/statm.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Int64
}

func startRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	r.sample()
	go func() {
		defer close(r.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				r.sample()
				return
			case <-t.C:
				r.sample()
			}
		}
	}()
	return r
}

func (r *rssSampler) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return
	}
	if v := pages * int64(os.Getpagesize()); v > r.peak.Load() {
		r.peak.Store(v)
	}
}

// end stops sampling and returns the peak in MiB.
func (r *rssSampler) end() float64 {
	close(r.stop)
	<-r.done
	return float64(r.peak.Load()) / (1 << 20)
}

// gcWindow measures garbage-collector work over a window.
type gcWindow struct{ cycles, pauseNs uint64 }

func gcNow() gcWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcWindow{cycles: uint64(ms.NumGC), pauseNs: ms.PauseTotalNs}
}

// since reports GC cycles and total pause (ms) since w.
func (w gcWindow) since() (cycles, pauseMs float64) {
	n := gcNow()
	return float64(n.cycles - w.cycles), float64(n.pauseNs-w.pauseNs) / 1e6
}

// heapMB is the current in-use heap in MiB.
func heapMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// cacheBytes reads psl_serve_cache_bytes from the service's metrics
// exposition.
func cacheBytes(svc *serve.Service) (float64, error) {
	reg := obs.NewRegistry()
	svc.RegisterMetrics(reg)
	samples, err := obs.ReadSamples(strings.NewReader(reg.Render()))
	if err != nil {
		return 0, err
	}
	for _, s := range samples {
		if s.Name == "psl_serve_cache_bytes" {
			return s.Value, nil
		}
	}
	return 0, errors.New("psl_serve_cache_bytes not exposed")
}

// clockCost is the median cost of one time.Now/time.Since pair, which
// per-call timings of sub-microsecond calls subtract.
func clockCost() time.Duration {
	xs := make([]float64, 0, 64)
	for k := 0; k < 64; k++ {
		const n = 4096
		t0 := time.Now()
		var sink time.Duration
		for i := 0; i < n; i++ {
			s := time.Now()
			sink += time.Since(s)
		}
		_ = sink
		xs = append(xs, float64(time.Since(t0))/n)
	}
	return time.Duration(median(xs))
}

// parallel runs fn on each of n goroutines and waits for them.
func parallel(n int, fn func(g int)) {
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fn(g)
		}(g)
	}
	wg.Wait()
}

// rawConn is a minimal HTTP/1.1 keep-alive client connection: it
// writes each request in one buffer and reads Content-Length framed
// responses, so the load generator spends little of the shared CPUs
// on its own side of the socket. Both service endpoints always send a
// Content-Length; anything else is an error.
type rawConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	wbuf []byte
}

func newRawConn(base string) *rawConn {
	return &rawConn{addr: strings.TrimPrefix(base, "http://")}
}

func (r *rawConn) close() {
	if r.c != nil {
		r.c.Close()
		r.c = nil
	}
}

// header is one extra request header.
type header struct{ name, value string }

// do sends one request and reads the response body into out. A
// request that fails on a reused connection is retried once on a
// fresh one.
func (r *rawConn) do(method, path, ctype string, body []byte, hdrs []header, out *bytes.Buffer) (int, error) {
	fresh := r.c == nil
	if fresh {
		c, err := net.Dial("tcp", r.addr)
		if err != nil {
			return 0, err
		}
		r.c, r.br = c, bufio.NewReaderSize(c, 64<<10)
	}
	w := append(r.wbuf[:0], method...)
	w = append(w, ' ')
	w = append(w, path...)
	w = append(w, " HTTP/1.1\r\nHost: "...)
	w = append(w, r.addr...)
	w = append(w, "\r\n"...)
	for _, h := range hdrs {
		w = append(w, h.name...)
		w = append(w, ": "...)
		w = append(w, h.value...)
		w = append(w, "\r\n"...)
	}
	if body != nil {
		w = append(w, "Content-Type: "...)
		w = append(w, ctype...)
		w = append(w, "\r\nContent-Length: "...)
		w = strconv.AppendInt(w, int64(len(body)), 10)
		w = append(w, "\r\n"...)
	}
	w = append(w, "\r\n"...)
	w = append(w, body...)
	r.wbuf = w
	status, err := r.exchange(out)
	if err != nil {
		r.close()
		if !fresh {
			return r.do(method, path, ctype, body, hdrs, out)
		}
	}
	return status, err
}

func (r *rawConn) exchange(out *bytes.Buffer) (int, error) {
	if _, err := r.c.Write(r.wbuf); err != nil {
		return 0, err
	}
	line, err := r.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, fmt.Errorf("bad status line %q", line)
	}
	length, closing := -1, false
	for {
		line, err := r.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		if len(line) <= 2 {
			break
		}
		name, value, ok := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(":"))
		if !ok {
			return 0, fmt.Errorf("bad header line %q", line)
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, fmt.Errorf("bad Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			return 0, fmt.Errorf("unsupported Transfer-Encoding %q", value)
		case bytes.EqualFold(name, []byte("Connection")) && bytes.EqualFold(value, []byte("close")):
			closing = true
		}
	}
	if length < 0 {
		return 0, errors.New("response without Content-Length")
	}
	out.Reset()
	out.Grow(length)
	if _, err := io.CopyN(out, r.br, int64(length)); err != nil {
		return 0, err
	}
	if closing {
		r.close()
	}
	return status, nil
}
