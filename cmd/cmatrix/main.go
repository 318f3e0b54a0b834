// Command cmatrix builds a compatibility relation into the packed
// engine, saves it as a file, and answers queries from a built or an
// opened engine.
//
// Build and save (expensive relations — exact SBP — pay off most):
//
//	cmatrix -dataset slashdot -relation SBP -out slashdot-sbp.stpk
//
// Open, inspect and query a saved engine. The file is checked against
// the graph it was saved over, so -in needs the same dataset flags
// (-dataset, -seed, -scale) as the build; the relation comes from the
// file:
//
//	cmatrix -dataset slashdot -in slashdot-sbp.stpk -info
//	cmatrix -dataset slashdot -in slashdot-sbp.stpk -query 3,17
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/balance"
	"repro/internal/compat"
	"repro/internal/datasets"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cmatrix:", err)
		os.Exit(1)
	}
}

// run parses the command line args and carries it out, printing to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("cmatrix", flag.ExitOnError)
	var (
		dataset  = fs.String("dataset", "", "built-in dataset: slashdot, epinions or wikipedia (required, also with -in)")
		seed     = fs.Int64("seed", 1, "dataset seed")
		scale    = fs.Float64("scale", 0, "dataset scale (0 = default)")
		relation = fs.String("relation", "SPO", "relation to build (ignored with -in: the file records it)")
		maxLen   = fs.Int("sbp-maxlen", 14, "exact SBP path length cap (SBP only)")
		out      = fs.String("out", "", "save the engine to this file")
		in       = fs.String("in", "", "open an engine saved over the dataset instead of building")
		info     = fs.Bool("info", false, "print engine metadata")
		query    = fs.String("query", "", "answer one pair query, e.g. -query 3,17")
		workers  = fs.Int("workers", 0, "build parallelism (0 = GOMAXPROCS)")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits, as with flag.Parse
	if *dataset == "" {
		return fmt.Errorf("pass -dataset (to build, or to check the -in file against)")
	}
	d, err := datasets.Load(*dataset, *seed, *scale)
	if err != nil {
		return err
	}
	var m *compat.ShardedMatrix
	if *in != "" {
		m, err = compat.OpenSharded(*in, d.Graph)
	} else {
		kind, perr := compat.ParseKind(*relation)
		if perr != nil {
			return perr
		}
		opts := compat.ShardedOptions{Workers: *workers}
		if kind == compat.SBP {
			opts.Exact = balance.ExactOptions{MaxLen: *maxLen}
		}
		fmt.Fprintf(os.Stderr, "building %v over %d nodes...\n", kind, d.Graph.NumNodes())
		m, err = compat.NewSharded(kind, d.Graph, opts)
	}
	if err != nil {
		return err
	}
	defer m.Close()

	if *out != "" {
		if err := m.Save(*out); err != nil {
			return err
		}
		st, err := os.Stat(*out)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d bytes, %v over %d nodes)\n", *out, st.Size(), m.Kind(), m.NumNodes())
	}
	if *info {
		fmt.Fprintf(w, "relation %v\nnodes    %d\nshards   %d × %d rows\n", m.Kind(), m.NumNodes(), m.NumShards(), m.ShardRows())
	}
	if *query == "" {
		return nil
	}
	parts := strings.SplitN(*query, ",", 2)
	if len(parts) != 2 {
		return fmt.Errorf("bad -query %q, want u,v", *query)
	}
	u, err1 := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 32)
	v, err2 := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 32)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("bad -query %q, want a pair of 32-bit integers", *query)
	}
	ok, err := m.Compatible(int32(u), int32(v))
	if err != nil {
		return err
	}
	dist, defined, err := m.Distance(int32(u), int32(v))
	if err != nil {
		return err
	}
	if defined {
		fmt.Fprintf(w, "compatible(%d,%d) = %v, distance = %d\n", u, v, ok, dist)
	} else {
		fmt.Fprintf(w, "compatible(%d,%d) = %v, distance undefined\n", u, v, ok)
	}
	return nil
}
