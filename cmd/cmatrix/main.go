// Command cmatrix builds a compatibility relation into the packed
// engine, saves it as a file, and answers queries from a built or an
// opened engine. It shares tfsn's dataset flags and every binary's
// relation parameters (cliflags.RelationOptions), but builds exact SBP
// packed.
//
// Build and save (expensive relations — exact SBP — pay off most):
//
//	cmatrix -dataset slashdot -relation SBP -out slashdot-sbp.stpk
//
// Open, inspect and query a saved engine. The file is checked against
// the graph it was saved over, so -in needs the same dataset flags as
// the build; the relation comes from the file (-relation is refused):
//
//	cmatrix -dataset slashdot -in slashdot-sbp.stpk -info
//	cmatrix -dataset slashdot -in slashdot-sbp.stpk -query 3,17
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/cliflags"
	"repro/internal/compat"
)

// errUsage marks a flag that would do nothing; main exits 2 on it.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cmatrix:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run parses the command line args and carries it out, printing to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("cmatrix", flag.ExitOnError)
	var data cliflags.Data
	data.Register(fs)
	var (
		relation = fs.String("relation", "SPO", "relation to build (not with -in: the file records it)")
		out      = fs.String("out", "", "save the engine to this file")
		in       = fs.String("in", "", "open an engine saved over the dataset instead of building")
		info     = fs.Bool("info", false, "print engine metadata")
		query    = fs.String("query", "", "answer one pair query, e.g. -query 3,17")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits, as with flag.Parse
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["in"] && set["relation"] {
		return fmt.Errorf("%w: -relation does not apply with -in (the file records the relation)", errUsage)
	}
	d, err := data.Load()
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
		fmt.Fprintf(os.Stderr, "building %v over %d nodes...\n", kind, d.Graph.NumNodes())
		opts := cliflags.RelationOptions(kind, d.Graph, compat.Options{})
		m, err = compat.NewSharded(kind, d.Graph, compat.ShardedOptions{Options: opts})
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
