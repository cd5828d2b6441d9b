package main

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/psl"
	"repro/internal/serve"
)

// The oracle: every answer the program returns is reduced to a 64-bit
// digest of the fields a consumer acts on (public suffix, registrable
// domain, is-suffix, ICANN section) and compared with the digest the
// library's psl.List gives for the same host under the version the
// answer's Seq names. Expected digests are computed before the timed
// window; checking one costs a field scan and a hash.

// fnv64 constants (FNV-1a).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func fnvAddBytes(h uint64, s []byte) uint64 {
	for _, c := range s {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

func fnvBool(h uint64, b bool) uint64 {
	v := uint64(0xf0)
	if b {
		v = 0xf1
	}
	h ^= v
	return h * fnvPrime
}

// digestOf combines the answer fields into one digest. The field
// separator byte 0 cannot occur inside a hostname.
func digestOf(etld, site string, isSuffix, icann bool) uint64 {
	h := uint64(fnvOffset)
	h = fnvAdd(h, etld)
	h = fnvAdd(h, "\x00")
	h = fnvAdd(h, site)
	h = fnvAdd(h, "\x00")
	h = fnvBool(h, isSuffix)
	return fnvBool(h, icann)
}

// answerDigest digests an in-process answer.
func answerDigest(a *serve.Answer) uint64 {
	return digestOf(a.ETLD, a.Site, a.IsSuffix, a.ICANN)
}

// expectedDigest is the library's answer for host under l.
func expectedDigest(l *psl.List, host string) (uint64, error) {
	suffix, icann, err := l.PublicSuffix(host)
	if err != nil {
		return 0, fmt.Errorf("oracle: %q: %w", host, err)
	}
	site, err := l.Site(host)
	isSuffix := errors.Is(err, psl.ErrIsSuffix)
	if err != nil && !isSuffix {
		return 0, fmt.Errorf("oracle: %q: %w", host, err)
	}
	return digestOf(suffix, site, isSuffix, icann), nil
}

// expectedAll computes expectedDigest for every host, split across
// GOMAXPROCS goroutines.
func expectedAll(l *psl.List, hosts []string) ([]uint64, error) {
	out := make([]uint64, len(hosts))
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	chunk := (len(hosts) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, len(hosts))
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				d, err := expectedDigest(l, hosts[i])
				if err != nil {
					errs[w] = err
					return
				}
				out[i] = d
			}
		}(w, lo, hi)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// wireAnswer holds the fields scanned out of one JSON answer object.
// etld and site alias the scanned buffer.
type wireAnswer struct {
	etld, site      []byte
	isSuffix, icann bool
	cached          bool
	seq             int
	hasErr          bool
}

func (w *wireAnswer) digest() uint64 {
	h := uint64(fnvOffset)
	h = fnvAddBytes(h, w.etld)
	h = fnvAdd(h, "\x00")
	h = fnvAddBytes(h, w.site)
	h = fnvAdd(h, "\x00")
	h = fnvBool(h, w.isSuffix)
	return fnvBool(h, w.icann)
}

var errScan = errors.New("malformed answer object")

// scanAnswer reads the flat JSON object the service encodes an Answer
// as. It understands exactly the value kinds an Answer contains
// (strings, booleans, integers) and rejects anything else, so a
// malformed answer counts as a failed operation rather than a guess.
func scanAnswer(b []byte, w *wireAnswer) error {
	*w = wireAnswer{seq: -1}
	i := skipWS(b, 0)
	if i >= len(b) || b[i] != '{' {
		return errScan
	}
	i = skipWS(b, i+1)
	if i < len(b) && b[i] == '}' {
		return nil
	}
	for {
		if i >= len(b) || b[i] != '"' {
			return errScan
		}
		kEnd, esc := stringEnd(b, i+1)
		if kEnd < 0 || esc {
			return errScan
		}
		key := b[i+1 : kEnd]
		i = skipWS(b, kEnd+1)
		if i >= len(b) || b[i] != ':' {
			return errScan
		}
		i = skipWS(b, i+1)
		if i >= len(b) {
			return errScan
		}
		switch c := b[i]; {
		case c == '"':
			end, esc := stringEnd(b, i+1)
			if end < 0 {
				return errScan
			}
			val := b[i+1 : end]
			if esc {
				s, err := strconv.Unquote(string(b[i : end+1]))
				if err != nil {
					return errScan
				}
				val = []byte(s)
			}
			switch string(key) {
			case "etld":
				w.etld = val
			case "site":
				w.site = val
			case "error":
				w.hasErr = true
			}
			i = end + 1
		case c == 't' || c == 'f':
			v := c == 't'
			lit := "false"
			if v {
				lit = "true"
			}
			if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
				return errScan
			}
			switch string(key) {
			case "is_suffix":
				w.isSuffix = v
			case "icann":
				w.icann = v
			case "cached":
				w.cached = v
			}
			i += len(lit)
		case c == '-' || (c >= '0' && c <= '9'):
			j := i + 1
			for j < len(b) && b[j] >= '0' && b[j] <= '9' {
				j++
			}
			n, err := strconv.Atoi(string(b[i:j]))
			if err != nil {
				return errScan
			}
			if string(key) == "seq" {
				w.seq = n
			}
			i = j
		default:
			return errScan
		}
		i = skipWS(b, i)
		if i >= len(b) {
			return errScan
		}
		if b[i] == '}' {
			return nil
		}
		if b[i] != ',' {
			return errScan
		}
		i = skipWS(b, i+1)
	}
}

func skipWS(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// stringEnd returns the index of the closing quote of a JSON string
// whose body starts at i, and whether the body holds escapes; -1 when
// unterminated.
func stringEnd(b []byte, i int) (int, bool) {
	esc := false
	for ; i < len(b); i++ {
		switch b[i] {
		case '\\':
			esc = true
			i++
		case '"':
			return i, esc
		}
	}
	return -1, esc
}
