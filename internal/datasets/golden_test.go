package datasets

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/graph"
)

// fingerprint hashes g's vertex count and its edge list (u < v, in
// Edges order) with SHA-256.
func fingerprint(g *graph.Graph) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[:4], uint32(g.N()))
	h.Write(buf[:4])
	g.Edges(func(u, v int) {
		binary.LittleEndian.PutUint32(buf[:4], uint32(u))
		binary.LittleEndian.PutUint32(buf[4:], uint32(v))
		h.Write(buf[:])
	})
	return hex.EncodeToString(h.Sum(nil))
}

// TestStandInFingerprints pins every stand-in that a golden density
// depends on, edge for edge. The dsdperf golden densities are computed
// on Yeast, Ca-HepTh, As-Caida and DBLP at Div 1; the pattern
// experiments load LoadPlain graphs, and gengraph loads the large specs
// at Div > 1. A generator change that moves any edge fails here first.
func TestStandInFingerprints(t *testing.T) {
	cases := []struct {
		name  string
		div   int
		plain bool
		n, m  int
		sha   string
	}{
		{"Yeast", 1, false, 1116, 3151,
			"cefc8f61b9ecc6a877418d8a06c43ad5c4a46b547bbd8d355dbd47bcd952c293"},
		{"Ca-HepTh", 1, false, 9877, 34920,
			"7f5a1dbf57ac139bf0d047ac2f231f4ca0f790d66d5aeb39e3741483e80c9d13"},
		{"As-Caida", 1, false, 26475, 120551,
			"ea9beb167fd4678968d6908525909584f338328bf4673cc5e4efac92d9b30a6b"},
		{"DBLP", 1, false, 425957, 1067008,
			"ba7eb74802ce6d08e703e3205d164289462adb5f1bc9d23b95d31e57475786b9"},
		{"Netscience", 1, true, 1589, 2870,
			"73c674cd4cc3eb7284432aaa751d0f0d08ff5d6fa0c7f59fe7f44dd5f9034320"},
		{"Cit-Patents", 8, false, 471846, 2075202,
			"3e39ed96bced08f912a9214c2fb074f089fc013c70ce543993786337797849e0"},
		{"SSCA", 20, false, 5000, 41705,
			"76451307237f5104fdee8c4d6905689a3cd439fe2a5bc911d403ca48c1abb9bd"},
		{"ER", 20, false, 5000, 239482,
			"40238194b60b1d48f47d33e23e1669b13fcdd8fe0935f61ca62a1e03c0b05c8c"},
		{"R-MAT", 20, false, 5000, 73462,
			"4129099e60673452d9ebf812666de5c943d0228e8bfe4c468c47dde5d5ace07a"},
	}
	for _, c := range cases {
		spec, err := Get(c.name)
		if err != nil {
			t.Fatal(err)
		}
		var g *graph.Graph
		if c.plain {
			g = spec.LoadPlain(c.div)
		} else {
			g = spec.LoadDiv(c.div)
		}
		if got := fingerprint(g); g.N() != c.n || g.M() != c.m || got != c.sha {
			t.Errorf("%s (div %d, plain %v): n=%d m=%d sha256=%s, want n=%d m=%d sha256=%s",
				c.name, c.div, c.plain, g.N(), g.M(), got, c.n, c.m, c.sha)
		}
	}
}
