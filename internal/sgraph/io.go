package sgraph

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// This file reads and writes signed edge lists in the TSV format used
// by the SNAP soc-sign datasets the paper evaluates on:
//
//	# comment lines start with '#'
//	<u> <tab or spaces> <v> <tab or spaces> <+1|-1>
//
// Node ids in a file may be arbitrary integers; they are remapped to
// the dense [0,n) range in ascending order, and the mapping is returned
// so skill files can be joined on the original ids.

// ReadEdgeList parses a signed edge list. Duplicate edges with a
// consistent sign are tolerated (the SNAP exports contain both (u,v)
// and (v,u) rows); contradictory duplicates and self-loops are
// rejected. Nodes are numbered in ascending order of their ids in the
// input, so a file whose ids are 0..n−1, each on some edge, loads with
// every id unchanged. It returns the graph and origIDs, where
// origIDs[i] is the id node i had in the input (ascending).
func ReadEdgeList(r io.Reader) (*Graph, []int64, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 1<<16), 1<<24)

	type rawEdge struct {
		u, v int64
		s    Sign
	}
	var edges []rawEdge
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, nil, fmt.Errorf("sgraph: line %d: want 3 fields, got %d", lineNo, len(fields))
		}
		u64, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("sgraph: line %d: bad source id %q", lineNo, fields[0])
		}
		v64, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("sgraph: line %d: bad target id %q", lineNo, fields[1])
		}
		s64, err := strconv.ParseInt(fields[2], 10, 8)
		if err != nil || (s64 != 1 && s64 != -1) {
			return nil, nil, fmt.Errorf("sgraph: line %d: bad sign %q (want 1 or -1)", lineNo, fields[2])
		}
		if u64 == v64 {
			continue // SNAP exports contain a handful of self-loops; drop them
		}
		edges = append(edges, rawEdge{u64, v64, Sign(s64)})
	}
	if err := scanner.Err(); err != nil {
		return nil, nil, fmt.Errorf("sgraph: reading edge list: %w", err)
	}

	origIDs := make([]int64, 0, 2*len(edges))
	for _, e := range edges {
		origIDs = append(origIDs, e.u, e.v)
	}
	slices.Sort(origIDs)
	origIDs = slices.Clip(slices.Compact(origIDs))
	node := func(raw int64) NodeID {
		i, _ := slices.BinarySearch(origIDs, raw)
		return NodeID(i)
	}
	b := NewBuilder(len(origIDs))
	seen := make(map[[2]NodeID]Sign, len(edges))
	for _, e := range edges {
		u, v := node(e.u), node(e.v)
		key := edgeKey(u, v)
		if prev, ok := seen[key]; ok {
			if prev != e.s {
				return nil, nil, fmt.Errorf("sgraph: edge (%d,%d) appears with both signs", e.u, e.v)
			}
			continue
		}
		seen[key] = e.s
		b.AddEdge(u, v, e.s)
	}
	g, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return g, origIDs, nil
}

// WriteEdgeList writes g in the TSV format accepted by ReadEdgeList,
// one undirected edge per line with U < V. When origIDs is non-nil it
// must have length NumNodes and is used to translate node ids back to
// their external form.
func WriteEdgeList(w io.Writer, g *Graph, origIDs []int64) error {
	if origIDs != nil && len(origIDs) != g.NumNodes() {
		return fmt.Errorf("sgraph: origIDs has %d entries for %d nodes", len(origIDs), g.NumNodes())
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# signed edge list: %d nodes, %d edges (%d negative)\n",
		g.NumNodes(), g.NumEdges(), g.NumNegativeEdges())
	ext := func(u NodeID) int64 {
		if origIDs == nil {
			return int64(u)
		}
		return origIDs[u]
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d\t%d\t%d\n", ext(e.U), ext(e.V), int8(e.Sign)); err != nil {
			return fmt.Errorf("sgraph: writing edge list: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("sgraph: writing edge list: %w", err)
	}
	return nil
}
