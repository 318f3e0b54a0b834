// Package cliflags holds the flag vocabulary the serving and
// experiment binaries share, so a knob added to one cannot silently
// drift out of the other's validation: both cmd/tfsn and
// cmd/experiments define the sharded-engine flags by these names and
// reject them under any other engine through the same check.
package cliflags

import "fmt"

// ShardedOnly lists the flag names that configure the sharded
// relation engine and mean nothing under -engine=lazy|matrix.
var ShardedOnly = []string{"shard-rows", "max-resident-shards", "mmap-spill"}

// ValidateEngine rejects sharded-only flags passed with another
// engine. set holds the names of flags explicitly present on the
// command line (collect with flag.Visit).
func ValidateEngine(engine string, set map[string]bool) error {
	if engine == "sharded" {
		return nil
	}
	for _, name := range ShardedOnly {
		if set[name] {
			return fmt.Errorf("-%s only applies to -engine=sharded (got -engine=%s)", name, engine)
		}
	}
	return nil
}
