package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"unicode"
)

// FromEdgeList parses a whitespace-separated edge list: one "u v" pair per
// line, '#' or '%' starting a comment line, fields past the second
// ignored. Vertex ids must be non-negative integers that fit in an int32;
// they need not be contiguous (gaps become isolated vertices). Lines are
// split and parsed in place, without allocating.
func FromEdgeList(r io.Reader) (*Graph, error) {
	b := NewBuilder(0)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		first, rest := nextField(text)
		if len(first) == 0 || first[0] == '#' || first[0] == '%' {
			continue
		}
		second, _ := nextField(rest)
		if len(second) == 0 {
			return nil, fmt.Errorf("edge list line %d: want two fields, got %q", line, bytes.TrimSpace(text))
		}
		u, err := parseID(first)
		if err != nil {
			return nil, fmt.Errorf("edge list line %d: bad vertex %q: %v", line, first, err)
		}
		v, err := parseID(second)
		if err != nil {
			return nil, fmt.Errorf("edge list line %d: bad vertex %q: %v", line, second, err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("edge list line %d: negative vertex id", line)
		}
		if max(u, v) > math.MaxInt32 {
			return nil, fmt.Errorf("edge list line %d: vertex id %d exceeds %d", line, max(u, v), math.MaxInt32)
		}
		b.AddEdge(u, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// nextField splits the first whitespace-separated field off b, with
// whitespace as unicode.IsSpace defines it (as strings.Fields splits),
// and returns it and what follows it. The field is empty when b holds
// only whitespace.
func nextField(b []byte) (field, rest []byte) {
	i := bytes.IndexFunc(b, func(r rune) bool { return !unicode.IsSpace(r) })
	if i < 0 {
		return nil, nil
	}
	b = b[i:]
	if j := bytes.IndexFunc(b, unicode.IsSpace); j >= 0 {
		return b[:j], b[j:]
	}
	return b, nil
}

// parseID parses a decimal vertex id. A plain digit string too short to
// overflow is parsed in place; anything else (a sign, a stray character,
// an overlong number) goes through strconv.Atoi, which accepts or
// rejects it, with the same error, as for any other integer.
func parseID(f []byte) (int, error) {
	if len(f) > 18 {
		return strconv.Atoi(string(f))
	}
	n := 0
	for _, c := range f {
		if c < '0' || c > '9' {
			return strconv.Atoi(string(f))
		}
		n = n*10 + int(c-'0')
	}
	return n, nil
}

// LoadEdgeList reads an edge-list file from disk.
func LoadEdgeList(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := FromEdgeList(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// WriteEdgeList writes the graph as "u v" lines with u < v.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var err error
	g.Edges(func(u, v int) {
		if err == nil {
			_, err = fmt.Fprintf(bw, "%d %d\n", u, v)
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// SaveEdgeList writes the graph to a file on disk.
func (g *Graph) SaveEdgeList(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteEdgeList(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
