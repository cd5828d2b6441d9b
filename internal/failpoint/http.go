package failpoint

import (
	"bytes"
	"net/http"
	"strconv"
	"time"
)

// Wrap returns next behind this site: every request consults the site
// and takes whatever wire fault the armed term decides. A request that
// takes no fault — every request while the site is disarmed — goes
// straight to next with nothing buffered. Only truncate and bitflip run
// next into a buffer, so the damaged response still carries the real
// headers and body shape. reset, truncate and stall abort with
// http.ErrAbortHandler, which a real net/http server turns into a cut
// connection; err answers 500 and crash panics, as at a storage site.
func (f *Failpoint) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !f.armed.Load() {
			if observing.Load() {
				f.hits.Add(1)
			}
			next.ServeHTTP(w, r)
			return
		}
		a := f.draw()
		switch a.kind {
		case kindPass:
			next.ServeHTTP(w, r)
		case kindLatency:
			if wait(r, a.d) {
				next.ServeHTTP(w, r)
			}
		case kindReset:
			panic(http.ErrAbortHandler)
		case kind5xx:
			http.Error(w, "failpoint: injected outage at "+f.name, http.StatusServiceUnavailable)
		case kindStall:
			wait(r, a.d)
			panic(http.ErrAbortHandler)
		case kindTruncate, kindBitflip:
			buf := &bufferedResponse{header: make(http.Header), code: http.StatusOK}
			next.ServeHTTP(buf, r)
			body := buf.body.Bytes()
			hdr := w.Header()
			for k, vs := range buf.header {
				hdr[k] = vs
			}
			hdr.Set("Content-Length", strconv.Itoa(len(body)))
			if a.kind == kindBitflip {
				flip(body, a.flip)
				w.WriteHeader(buf.code)
				_, _ = w.Write(body)
				return
			}
			// Truncate: promise the whole body, deliver half, cut the line.
			w.WriteHeader(buf.code)
			_, _ = w.Write(body[:len(body)/2])
			if fl, ok := w.(http.Flusher); ok {
				fl.Flush()
			}
			panic(http.ErrAbortHandler)
		case kindCrash:
			panic(Crash{Name: f.name})
		default: // kindErr
			http.Error(w, f.injected(a).Error(), http.StatusInternalServerError)
		}
	})
}

// wait sleeps d or until the request is cancelled, reporting whether
// the full delay elapsed.
func wait(r *http.Request, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-r.Context().Done():
		return false
	case <-t.C:
		return true
	}
}

// flip damages one byte in every started 256-byte chunk, at offsets
// drawn from seed; XOR with a non-zero constant guarantees every
// touched byte changes, and distinct chunks mean no flip undoes another.
func flip(body []byte, seed uint64) {
	x := seed
	for start := 0; start < len(body); start += 256 {
		x = x*6364136223846793005 + 1442695040888963407
		n := min(256, len(body)-start)
		body[start+int((x>>33)%uint64(n))] ^= 0x5a
	}
}

// bufferedResponse captures a handler's response so Wrap can damage it
// before anything reaches the wire.
type bufferedResponse struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) { b.code = code }

func (b *bufferedResponse) Write(p []byte) (int, error) { return b.body.Write(p) }
