package umetrics

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"emgo/internal/table"
)

// truthDigest is a sha256 over every ground-truth pair of t, one sorted
// line per pair: its set, its two keys and its class.
func truthDigest(t *Truth) string {
	var lines []string
	for set, m := range map[string]map[IDKey]PairClass{"match": t.matches, "hard": t.hard, "trap": t.traps} {
		for k, c := range m {
			lines = append(lines, fmt.Sprintf("%s\x1f%s\x1f%s\x1f%d\n", set, k.UAN, k.Accession, c))
		}
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratedTablesPinned pins the generator's every table, its truth,
// and the Section 6 outputs — both slices', through Preprocess (with
// ProjectNumber joined onto the original) and through the study's own
// slices — at three parameter sets. The third pads the employees table
// past its award/employee pairs. A change to how tables are generated or
// prepared must leave every digest as it is; one meant to move the data
// records the new digests and says why they moved.
func TestGeneratedTablesPinned(t *testing.T) {
	padded := TestParams(0.05)
	padded.EmployeeRows = 2500
	for _, c := range []struct {
		name string
		p    Params
		want map[string]string
	}{
		{"scale=0.1", TestParams(0.1), map[string]string{
			"AwardAgg":          "eee03cd708d7e19e09b8e4fdf2fedf322fc2f70aca31d7c97e0d4e89c2ca08fc",
			"Employees":         "ebb4685af845db05d9fbdeeb7190164889bb2499ebe4219ae3d0611865fc0ccf",
			"ExtraAwardAgg":     "e565010134ae902979d4f4e36d3160572ae6c4767173d8305d3b997099ccbe4f",
			"ExtraProjected":    "1d85371d8eb3f745b564a7aed3eb843955fd0b4a7613fd4c61820c4ea313495a",
			"ObjectCodes":       "c207133369c77439179cf7891c67775940194dfb067b5e2e4148e864ddb2fb49",
			"OrgUnits":          "2a573d11c0c628dbdb4af5762cc7c4986766eb68189f36b66f73aa407441538d",
			"SubAward":          "e1618dac0df4d5a5c285485f0c880ae1d9c86e772b4a518a7b1bdd44d4fa7364",
			"Truth":             "b49d3cc8c99d27c5dc97a4500922d5cbab95798ce5156f373757e2d1c4a5bc38",
			"UMETRICSProjected": "888a5c03db8c547253140c4e2ac854f5aad8bb13ecbc39dd3f939244187f5c60",
			"USDA":              "2e3e4bf57a9250c06b3323f6d9891637c3f5a68dc71ce8bc3b5a96f658f11c3c",
			"USDAProjected":     "2b9a025d155222af309787dd48fe3802f3e3b0733fa6374c69084d8a74d3ad36",
			"Vendor":            "2451678af130c7aab3c627644bb844a3cb9a1250891665570f060bfef430c164",
		}},
		{"scale=1", TestParams(1), map[string]string{
			"AwardAgg":          "ebcb20c6e7d0ad8384ea080ec338a2a1455fc7cd148ae64d8f2e1189bc8ac83b",
			"Employees":         "fa8f6814f1594a5d6a7bb44ef3a08af82c55c3076eb5c6daea951fd746fb09b1",
			"ExtraAwardAgg":     "b08f95fb796361072de1c38fe1e5f959b7a666487cad2421f837aa729434c3bf",
			"ExtraProjected":    "5d824b4d3a83213341ae86abd6ac6ac92536eb60d425f37e591e8b36f0aae2e0",
			"ObjectCodes":       "c207133369c77439179cf7891c67775940194dfb067b5e2e4148e864ddb2fb49",
			"OrgUnits":          "2a573d11c0c628dbdb4af5762cc7c4986766eb68189f36b66f73aa407441538d",
			"SubAward":          "3bd6b0b9ed2314eedef28076c25c473c4eea942133d45e506221228eb567f86e",
			"Truth":             "ecadb4bffba5f3d1976ee8c4463069836968c3f67683fca5ef910817a7437d7f",
			"UMETRICSProjected": "4cd2c0b0710e798c159e241c4db87a9b151e59b9e5223cbc8b2d265ead7ac881",
			"USDA":              "5003b61f049da515c33b1590455dc3c874d37135f61b60cd016f95fae643be90",
			"USDAProjected":     "2b9995094d657823791e814bae5283ec59f8411f2338c826e5d3a0e3c3c34f54",
			"Vendor":            "89e7585bb75fe02125d91c99e6ed8c6c76f3e4d5a876ce524f0a4c049986959b",
		}},
		{"padded", padded, map[string]string{
			"AwardAgg":          "fe751cd9d7855dd6a62e02b9fb5b687c6f5f47f78e7ba6a0a66fa171c0ccbdf8",
			"Employees":         "d2fb16a8439d3ee7be9e583f933665a3619c614d08c1c82dfe2ed51420511a98",
			"ExtraAwardAgg":     "c66d4b714f92984d429754115206c093eb7e4a74f7fbe724e82f0242a17c7383",
			"ExtraProjected":    "d12e4525b8ff1c3d958992fe47bd87f506dbadbbc4448837c91363bc0aa64785",
			"ObjectCodes":       "c207133369c77439179cf7891c67775940194dfb067b5e2e4148e864ddb2fb49",
			"OrgUnits":          "2a573d11c0c628dbdb4af5762cc7c4986766eb68189f36b66f73aa407441538d",
			"SubAward":          "f7bd692cf3c9768a13f9d2d02bbe9bf60963c8d186223bd53f73454a25362703",
			"Truth":             "3d3dbe02c485cf26abc415f3c46bd1528de56bd6b46bf3653f78d006d98e2e76",
			"UMETRICSProjected": "e1d67c8b6da1888ed84db91164363f24bd8025c360e41b73d49eb282b7b2db48",
			"USDA":              "68c33b81c5cb783298c447ca8fea5b85fcc46ac9ca6120f3cfca142aa80b2311",
			"USDAProjected":     "f193f6bf5fe99aebb96f589d203af87c2ba61d0401d0c40e5b7fbc1f796c2778",
			"Vendor":            "b67ca6b820a105dc3d577ef67f570d99317fe59ded74391170b68bb915803209",
		}},
	} {
		ds, err := Generate(c.p)
		if err != nil {
			t.Fatal(err)
		}
		if c.name == "padded" && ds.Employees.Len() != padded.EmployeeRows {
			t.Fatalf("padded: %d employee rows, want %d", ds.Employees.Len(), padded.EmployeeRows)
		}
		orig, _, err := Preprocess(ds.AwardAgg, ds.Employees, ds.USDA, "u", "s")
		if err != nil {
			t.Fatal(err)
		}
		if err := AddProjectNumber(orig, ds.USDA); err != nil {
			t.Fatal(err)
		}
		extra, _, err := Preprocess(ds.ExtraAwardAgg, ds.Employees, ds.USDA, "x", "s")
		if err != nil {
			t.Fatal(err)
		}
		proj, sliced, _, err := slices(ds)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]string{"Truth": truthDigest(ds.Truth)}
		for name, tb := range map[string]*table.Table{
			"AwardAgg": ds.AwardAgg, "ExtraAwardAgg": ds.ExtraAwardAgg, "Employees": ds.Employees,
			"ObjectCodes": ds.ObjectCodes, "OrgUnits": ds.OrgUnits, "SubAward": ds.SubAward,
			"Vendor": ds.Vendor, "USDA": ds.USDA,
			"UMETRICSProjected": orig.UMETRICS, "USDAProjected": orig.USDA, "ExtraProjected": extra.UMETRICS,
		} {
			got[name] = tb.Fingerprint()
		}
		// The study's slices are the same tables, and the extra slice is
		// matched against the original's USDA side.
		for name, tb := range map[string]*table.Table{
			"UMETRICSProjected": proj.UMETRICS, "USDAProjected": proj.USDA,
			"ExtraProjected": sliced.UMETRICS, "extra USDAProjected": sliced.USDA,
		} {
			want := got[name]
			if name == "extra USDAProjected" {
				want = got["USDAProjected"]
			}
			if fp := tb.Fingerprint(); fp != want {
				t.Errorf("%s: slices' %s = %s, Preprocess's %s", c.name, name, fp, want)
			}
		}
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if got[name] != c.want[name] {
				t.Errorf("%s: %s digest %s, want %s", c.name, name, got[name], c.want[name])
			}
		}
	}
}

// TestStudyDataPrepAllocCeiling bounds a study's data preparation —
// Generate, then Preprocess with ProjectNumber joined in — at
// TestParams(0.6). It made 115.0k allocations while the table operators
// allocated per row and the generator built the USDA schema per row and
// its ids through fmt; it makes 40.4k now. The ceiling is that plus
// 10 %: the USDA schema built per row again makes 48.5k and fails it.
func TestStudyDataPrepAllocCeiling(t *testing.T) {
	const ceiling = 44_500
	p := TestParams(0.6)
	got := testing.AllocsPerRun(3, func() {
		ds, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		proj, _, err := Preprocess(ds.AwardAgg, ds.Employees, ds.USDA, "u", "s")
		if err != nil {
			t.Fatal(err)
		}
		if err := AddProjectNumber(proj, ds.USDA); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("data preparation: %.0f allocations", got)
	if got > ceiling {
		t.Fatalf("data preparation at TestParams(0.6) allocates %.0f times, want at most %d", got, ceiling)
	}
}
