package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"repro/internal/history"
)

// The pinned digests were computed from the default history with the
// reference comparator, strings.Compare over domain.Reverse of both
// suffixes. The fingerprint of every version, the serialized head, and
// the two /dist/ bodies a replica downloads for the head all follow
// the canonical rule order, so a comparator that reorders any pair of
// rules the history holds moves at least one of them.
const (
	goldenVersions    = 1142
	goldenChainFPs    = "35ced3f4c00aee8d67d435a30adb320deb26c87e8f3d41550ebbd920e8b72eb7"
	goldenSerialized  = "10a046cf66ba678cf3386e00fe929f078d8171fabee4a1872c34ae7c40f529bf"
	goldenFullBody    = "ec57020730231d8374c185a9b94819a02529487b19e392dda931a3c34203ac9f"
	goldenMatcherBlob = "9bd9f53744c5e7b9752dabc3a5f9803485b873f291ef46dd1519669ef406764e"
)

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestCanonicalOrderGolden pins the bytes the canonical rule order
// produces across the whole default history. Every 97th version (and
// the head) is also materialised and fingerprinted through
// psl.List.Fingerprint, which must agree with the chain's incremental
// fingerprint for that version.
func TestCanonicalOrderGolden(t *testing.T) {
	h := history.Generate(history.Config{Seed: history.DefaultSeed})
	if h.Len() != goldenVersions {
		t.Fatalf("default history has %d versions, want %d", h.Len(), goldenVersions)
	}
	c := NewChain(h)
	fps := sha256.New()
	for seq := 0; seq < c.Len(); seq++ {
		io.WriteString(fps, c.Fingerprint(seq))
		fps.Write([]byte{'\n'})
	}
	head := h.Len() - 1
	for seq := 0; seq <= head; seq += 97 {
		if got := h.ListAt(seq).Fingerprint(); got != c.Fingerprint(seq) {
			t.Errorf("v%d: List.Fingerprint %s, chain %s", seq, got, c.Fingerprint(seq))
		}
	}
	l := h.ListAt(head)
	fp := l.Fingerprint()
	if fp != c.Fingerprint(head) {
		t.Errorf("head: List.Fingerprint %s, chain %s", fp, c.Fingerprint(head))
	}
	for _, g := range []struct{ name, got, want string }{
		{"chain fingerprints", hex.EncodeToString(fps.Sum(nil)), goldenChainFPs},
		{"head Serialize", sha([]byte(l.Serialize())), goldenSerialized},
		{"head full snapshot", sha(EncodeFull(l, head)), goldenFullBody},
		{"head matcher blob", sha(renderMatcherBlob(l, head, fp)), goldenMatcherBlob},
	} {
		if g.got != g.want {
			t.Errorf("%s: sha256 %s, want %s", g.name, g.got, g.want)
		}
	}
}
