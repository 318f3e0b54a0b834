package skills

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// WriteTSV writes the assignment as "user<TAB>skillName,skillName,..."
// lines, one per user with at least one skill, preceded by a header
// comment listing the universe size.
func WriteTSV(w io.Writer, a *Assignment) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# skills: %d users, %d skills, %d assignments\n",
		a.NumUsers(), a.Universe().Len(), a.TotalAssignments())
	fmt.Fprintf(bw, "# universe: %s\n", strings.Join(a.universe.names, ","))
	for u, sk := range a.ofUser {
		if len(sk) == 0 {
			continue
		}
		names := make([]string, len(sk))
		for i, s := range sk {
			names[i] = a.universe.Name(s)
		}
		if _, err := fmt.Fprintf(bw, "%d\t%s\n", u, strings.Join(names, ",")); err != nil {
			return fmt.Errorf("skills: writing assignment: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("skills: writing assignment: %w", err)
	}
	return nil
}

// ReadTSV parses the format written by WriteTSV, joining each row on
// its user id: userIDs[i] is the id user i has in the file, in
// ascending order (sgraph.ReadEdgeList's origIDs), and fixes the user
// range. A row whose id is not in userIDs is an error naming the id;
// users missing from the file simply have no skills.
func ReadTSV(r io.Reader, userIDs []int64) (*Assignment, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var a *Assignment
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# universe:") {
			names := strings.Split(strings.TrimSpace(strings.TrimPrefix(line, "# universe:")), ",")
			u, err := NewUniverse(names)
			if err != nil {
				return nil, fmt.Errorf("skills: line %d: %w", lineNo, err)
			}
			a = NewAssignment(u, len(userIDs))
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if a == nil {
			return nil, fmt.Errorf("skills: line %d: assignment rows before the '# universe:' header", lineNo)
		}
		parts := strings.SplitN(line, "\t", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("skills: line %d: want 'user<TAB>skills'", lineNo)
		}
		id, err := strconv.ParseInt(parts[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("skills: line %d: bad user id %q", lineNo, parts[0])
		}
		user, ok := slices.BinarySearch(userIDs, id)
		if !ok {
			return nil, fmt.Errorf("skills: line %d: user %d has no edge in the graph", lineNo, id)
		}
		for _, name := range strings.Split(parts[1], ",") {
			s, ok := a.universe.Lookup(strings.TrimSpace(name))
			if !ok {
				return nil, fmt.Errorf("skills: line %d: unknown skill %q", lineNo, name)
			}
			if err := a.Add(int32(user), s); err != nil {
				return nil, fmt.Errorf("skills: line %d: %w", lineNo, err)
			}
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("skills: reading assignment: %w", err)
	}
	if a == nil {
		return nil, fmt.Errorf("skills: missing '# universe:' header")
	}
	return a, nil
}
