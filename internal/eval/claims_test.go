package eval

import (
	"strconv"
	"testing"

	"repro/internal/analysis"
)

// TestTable1GradesMatchTable3 makes Table 1's qualitative grades
// falsifiable against Table 3's measurements, for every scheme both cover:
// a high false-positive grade must mean at least one false alarm per two
// benign churn events (and a lower grade fewer), and a scheme graded as
// covering unsolicited replies must detect the reply-spoofing MITM.
func TestTable1GradesMatchTable3(t *testing.T) {
	measured := Table3Detection(3)
	checked := 0
	for _, p := range analysis.Matrix() {
		var row []string
		for _, r := range measured.Rows {
			if r[0] == p.Name {
				row = r
			}
		}
		if row == nil {
			continue
		}
		checked++
		tpr, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("%s TPR %q: %v", p.Name, row[1], err)
		}
		fpPerChurn, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("%s FP/churn %q: %v", p.Name, row[2], err)
		}
		if graded, noisy := p.FalsePositives == analysis.CostHigh, fpPerChurn >= 0.5; graded != noisy {
			t.Errorf("%s: Table 1 false positives %s, Table 3 FP/churn %.2f", p.Name, p.FalsePositives, fpPerChurn)
		}
		if p.VsUnsolicited >= analysis.CoveragePartial && tpr <= 0 {
			t.Errorf("%s: Table 1 unsolicited-reply coverage %s, Table 3 TPR %.2f", p.Name, p.VsUnsolicited, tpr)
		}
	}
	if checked == 0 {
		t.Fatal("no scheme appears in both Table 1 and Table 3")
	}
}
