// The dataset flag group and the task grammar. Data bundles the two
// dataset sources cmd/tfsn and cmd/tfsnd load from — a built-in
// stand-in (-dataset, -seed, -scale) or a snapshot file pair (-edges,
// -skills, as cmd/sgen writes them) — with the one loader. ParseTask
// is the one skill-name parser, shared by tfsn's -task flag and the
// daemon's task query parameter.

package cliflags

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/datasets"
	"repro/internal/sgraph"
	"repro/internal/skills"
)

// Data is the dataset flag group: either a built-in stand-in or an
// edge-list file with its skill TSV.
type Data struct {
	Name   string  // built-in stand-in: slashdot, epinions or wikipedia
	Edges  string  // signed edge-list file, loaded with Skills instead of Name
	Skills string  // skill-assignment TSV file
	Seed   int64   // stand-in generation seed
	Scale  float64 // stand-in scale (0 = the dataset's default)
}

// Register defines -dataset, -edges, -skills, -seed and -scale on fs.
func (d *Data) Register(fs *flag.FlagSet) {
	fs.StringVar(&d.Name, "dataset", "", "built-in dataset: slashdot, epinions or wikipedia")
	fs.StringVar(&d.Edges, "edges", "", "signed edge list file (with -skills, instead of -dataset)")
	fs.StringVar(&d.Skills, "skills", "", "skill assignment TSV file")
	fs.Int64Var(&d.Seed, "seed", 1, "dataset seed")
	fs.Float64Var(&d.Scale, "scale", 0, "built-in dataset scale (0 = default)")
}

// Load builds the selected stand-in or reads the file pair; passing
// both sources, or neither, is an error.
func (d *Data) Load() (*datasets.Dataset, error) {
	switch {
	case d.Name != "" && d.Edges != "":
		return nil, errors.New("pass either -dataset or -edges/-skills, not both")
	case d.Name != "":
		return datasets.Load(d.Name, d.Seed, d.Scale)
	case d.Edges != "" && d.Skills != "":
		ef, err := os.Open(d.Edges)
		if err != nil {
			return nil, err
		}
		defer ef.Close()
		g, ids, err := sgraph.ReadEdgeList(ef)
		if err != nil {
			return nil, err
		}
		sf, err := os.Open(d.Skills)
		if err != nil {
			return nil, err
		}
		defer sf.Close()
		assign, err := skills.ReadTSV(sf, ids)
		if err != nil {
			return nil, err
		}
		return &datasets.Dataset{Name: d.Edges, Graph: g, Assign: assign}, nil
	default:
		return nil, errors.New("pass -dataset, or -edges together with -skills")
	}
}

// ParseTask resolves a comma-separated list of skill names ("A, B")
// against u. Names are trimmed; an unknown one is an error quoting it
// as given.
func ParseTask(u *skills.Universe, spec string) (skills.Task, error) {
	var ids []skills.SkillID
	for _, name := range strings.Split(spec, ",") {
		id, ok := u.Lookup(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown skill %q", name)
		}
		ids = append(ids, id)
	}
	return skills.NewTask(ids...), nil
}
