// Fixture for the testonly analyzer: exported names of an internal
// package need a non-test reference somewhere in the load.
package lib

import (
	"fmt"
	"sort"
)

// Unused has no reference anywhere.
func Unused() {} // want `exported func Unused has no non-test reference`

const UnusedConst = 1 // want `exported const UnusedConst`

// Local is referenced only inside this package, which counts as a use.
func Local() int { return 1 }

var local = Local()

// ByLen's Len, Less and Swap implement sort.Interface: sort calls them
// through the interface, so no file names them.
type ByLen []string

func (s ByLen) Len() int           { return len(s) }
func (s ByLen) Less(i, j int) bool { return len(s[i]) < len(s[j]) }
func (s ByLen) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// Longest has no caller, and no interface or facade covers it.
func (s ByLen) Longest() string { return "" } // want `exported method ByLen\.Longest`

func sortByLen(s []string) { sort.Sort(ByLen(s)) }

// Name's String implements fmt.Stringer.
type Name string

func (n Name) String() string { return string(n) }

func describe() string { return fmt.Sprint(Name("x")) }

// Handle's Close is called only through an interface literal.
type Handle struct{}

func (Handle) Close() error { return nil }

func release(v any) error {
	if c, ok := v.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

var handle = Handle{}

// Graph is re-exported by the facade: its methods are public API.
type Graph struct {
	Nodes int
}

func (g *Graph) NumNodes() int { return g.Nodes }

// Point's fields are never checked, so unread X and Y are not flagged.
type Point struct {
	X, Y int
}

var origin Point

// Shape's method is an interface method, which is never flagged.
type Shape interface {
	Area() float64
}

var shape Shape
