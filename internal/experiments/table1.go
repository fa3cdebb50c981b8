package experiments

import (
	"fmt"
	"strings"

	"vpm/internal/aggregation"
)

// Table1Row is one line of the paper's Table 1: partitions of the
// packet set {p1..p4}, their "coarser than" relationships, and join
// examples.
type Table1Row struct {
	Name     string
	Value    string
	Relation string
	JoinNote string
}

// Table1 reproduces the paper's Table 1 by evaluating the partition
// algebra implementation on the worked example.
func Table1() []Table1Row {
	p1, p2, p3, p4 := uint64(1), uint64(2), uint64(3), uint64(4)
	A1 := aggregation.Partition{{p1}, {p2}, {p3}, {p4}}
	A2 := aggregation.Partition{{p1, p2}, {p3, p4}}
	A3 := aggregation.Partition{{p1}, {p2, p3}, {p4}}
	A3p := aggregation.Partition{{p1}, {p2}, {p3, p4}}
	A4 := aggregation.Partition{{p1, p2, p3, p4}}

	render := func(p aggregation.Partition) string {
		var aggs []string
		for _, a := range p {
			var ids []string
			for _, id := range a {
				ids = append(ids, fmt.Sprintf("p%d", id))
			}
			aggs = append(aggs, "{"+strings.Join(ids, ",")+"}")
		}
		return "{" + strings.Join(aggs, ", ") + "}"
	}
	rel := func(hi, lo aggregation.Partition, name string) string {
		if hi.Coarser(lo) {
			return name
		}
		return "VIOLATED: " + name
	}
	joinEq := func(a, b, want aggregation.Partition, name string) string {
		if a.JoinWith(b).Equal(want) {
			return name
		}
		return "VIOLATED: " + name
	}
	return []Table1Row{
		{"A1", render(A1), "", ""},
		{"A2", render(A2), rel(A2, A1, "A2 >= A1"), joinEq(A1, A2, A2, "Join(A1,A2) = A2")},
		{"A3", render(A3), rel(A3, A1, "A3 >= A1"), joinEq(A2, A3, A4, "Join(A2,A3) = A4")},
		{"A3'", render(A3p), rel(A2, A3p, "A2 >= A3'"), joinEq(A2, A3p, A2, "Join(A2,A3') = A2")},
		{"A4", render(A4), rel(A4, A2, "A4 >= A2") + ", " + rel(A4, A3, "A4 >= A3"), ""},
	}
}

// Table1Render renders the table.
func Table1Render(rows []Table1Row) string {
	header := []string{"Set", "Partition", "Relation", "Join example"}
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{r.Name, r.Value, r.Relation, r.JoinNote})
	}
	return Markdown(header, body)
}
