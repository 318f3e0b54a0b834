// Fixture for the testonly analyzer: this package is the facade of
// internal/lib, as the root package is the facade of the module's
// internal packages. Its alias makes lib.Graph's methods public API.
package testonly

import "repro/internal/lint/testdata/src/testonly/internal/lib"

type graph = lib.Graph
