package denovogpu

// This file is the model-checking counterpart of matrixspec.go: wire
// specs for check cells (one litmus program × configuration
// exploration, optionally one shard of it), the content-addressed
// cache key for a check result, and the canonical report/verdict
// encodings. The same determinism contract applies — a check cell's
// canonical report depends only on (code version, config, program,
// budget, shard), never on which worker ran it — so check
// results cache and distribute through exactly the same sweepd
// machinery as simulation cells.
//
// Reports vs verdicts: a *report* is one cell's full result, including
// its States count and its shard identity; per-shard States is
// deterministic, but the sum across shards differs between shard
// counts (different reductions prune differently). A *verdict* is the
// merged, shard-count-independent summary — program, config, outcome
// set, violation — and is byte-identical between a serial run and any
// sharded run of a clean program. (A violating program's verdict may
// differ in Detail/Trace between shardings: exploration order differs,
// so a different witness of the same broken invariant can be found
// first. The verdict's Invariant is still the deterministic merge of
// each deterministic per-shard result.)

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"denovogpu/internal/litmus"
	"denovogpu/internal/machine"
	"denovogpu/internal/mcheck"
)

// CheckShard identifies one Unit of a sharded exploration: replay
// Prefix from the root, then run source-DPOR below the cut with Sleep
// as the inherited sleep set (see mcheck.Unit). Index is the unit's
// position in its SplitPlan — the merge's tie-break order.
type CheckShard struct {
	Index  int      `json:"index"`
	Prefix []uint32 `json:"prefix,omitempty"`
	Sleep  []uint32 `json:"sleep,omitempty"`
}

// CheckCellSpec is the wire form of one model-checking cell: a
// configuration, a catalog litmus program by name, and the exploration
// parameters. Budget <= 0 selects mcheck.DefaultBudget, canonicalized
// before keying, so specs that spell the default differently share a
// cache key. A nil Shard means the whole exploration.
type CheckCellSpec struct {
	Config  ConfigSpec  `json:"config"`
	Program string      `json:"program"`
	Budget  int         `json:"budget,omitempty"`
	Shard   *CheckShard `json:"shard,omitempty"`
}

// resolve canonicalizes the spec into runnable pieces.
func (s CheckCellSpec) resolve() (machine.Config, *litmus.Program, mcheck.Options, error) {
	cfg, err := s.Config.Resolve()
	if err != nil {
		return machine.Config{}, nil, mcheck.Options{}, err
	}
	p, err := LitmusProgramByName(s.Program)
	if err != nil {
		return machine.Config{}, nil, mcheck.Options{}, err
	}
	budget := s.Budget
	if budget <= 0 {
		budget = mcheck.DefaultBudget
	}
	return cfg, p, mcheck.Options{Budget: budget}, nil
}

// Validate rejects unresolvable specs (unknown config or program)
// without running anything; the coordinator calls it at
// submit so a job never discovers a bad cell halfway through.
func (s CheckCellSpec) Validate() error {
	_, _, _, err := s.resolve()
	return err
}

// DisplayName is the spec's workload-slot label in sweepd progress
// events: "check:MP", or "check:MP#3" for shard 3.
func (s CheckCellSpec) DisplayName() string {
	if s.Shard != nil {
		return fmt.Sprintf("check:%s#%d", s.Program, s.Shard.Index)
	}
	return "check:" + s.Program
}

// LitmusProgramByName finds a catalog litmus program. Only catalog
// programs are addressable on the wire — a generated program has no
// stable name to key a cached result under.
func LitmusProgramByName(name string) (*litmus.Program, error) {
	for _, e := range litmus.Catalog() {
		if e.Program.Name == name {
			return e.Program, nil
		}
	}
	return nil, fmt.Errorf("denovogpu: unknown litmus program %q (want a catalog name; see LitmusProgramNames)", name)
}

// LitmusProgramNames lists the catalog programs, in catalog order.
func LitmusProgramNames() []string {
	var names []string
	for _, e := range litmus.Catalog() {
		names = append(names, e.Program.Name)
	}
	return names
}

// CheckKey returns the canonical content address of one check cell,
// following the CellKey recipe: hex SHA-256 over length-prefixed
// (schema, code version, canonicalized config, program, budget,
// shard). Budget is keyed post-canonicalization and the shard part is
// the canonical JSON of the Shard ("" when nil), so equivalent
// spellings share a key and anything that changes what the cell
// explores changes it.
func CheckKey(codeVersion string, s CheckCellSpec) (string, error) {
	cfg, p, opts, err := s.resolve()
	if err != nil {
		return "", err
	}
	cfgJSON, err := json.Marshal(cfg.Defaults())
	if err != nil {
		return "", err
	}
	shard := ""
	if s.Shard != nil {
		b, err := json.Marshal(s.Shard)
		if err != nil {
			return "", err
		}
		shard = string(b)
	}
	h := sha256.New()
	for _, part := range []string{
		"denovogpu-check/v2", codeVersion, string(cfgJSON), p.Name,
		fmt.Sprintf("%d", opts.Budget), shard,
	} {
		fmt.Fprintf(h, "%d:%s", len(part), part)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// CheckConfigSpecs returns the full model-checking configuration set
// (mcheck.Configs: the litmus set plus the DH lazy-writes ablation) as
// wire specs — by name where ConfigByName resolves one, raw otherwise
// (the ablation has no addressable name).
func CheckConfigSpecs() []ConfigSpec {
	var out []ConfigSpec
	for _, cfg := range mcheck.Configs() {
		if _, err := ConfigByName(cfg.Name()); err == nil {
			out = append(out, ConfigSpec{Name: cfg.Name()})
		} else {
			out = append(out, ConfigSpec{Raw: &cfg})
		}
	}
	return out
}

// SplitCheckCell partitions a whole-exploration check cell into
// per-shard cells plus the split phase's own partial report (the top
// region's states, outcomes and any violation it found, as a shard-less
// CheckReport). When the returned cell list is empty — the split phase
// found a violation, or fully explored a tiny program — the partial
// report is already the cell's complete result. Otherwise the merge of
// the partial report followed by the per-shard reports, in order, is
// the cell's verdict (MergeCheckVerdict).
func SplitCheckCell(s CheckCellSpec, shards int) ([]CheckCellSpec, CheckReport, error) {
	if s.Shard != nil {
		return nil, CheckReport{}, fmt.Errorf("denovogpu: splitting an already-sharded check cell (%s)", s.DisplayName())
	}
	cfg, p, opts, err := s.resolve()
	if err != nil {
		return nil, CheckReport{}, err
	}
	plan, err := mcheck.Split(cfg, p, opts, shards)
	if err != nil {
		return nil, CheckReport{}, err
	}
	base := CheckReport{
		Schema:    checkReportSchema,
		Program:   p.Name,
		Config:    cfg.Name(),
		Budget:    opts.Budget,
		States:    plan.States,
		Outcomes:  sortedOutcomeKeys(plan.Outcomes),
		Violation: wireViolation(plan.Violation),
	}
	var cells []CheckCellSpec
	for i, u := range plan.Units {
		c := s
		// Canonicalized so every shard of a cell keys against the same
		// budget spelling as its siblings.
		c.Budget = opts.Budget
		c.Shard = &CheckShard{Index: i, Prefix: u.Prefix, Sleep: u.Sleep}
		cells = append(cells, c)
	}
	return cells, base, nil
}

// CheckViolation is a counterexample in wire form: the violated
// invariant, its description, the non-conformant outcome key (oracle
// conformance only) and the transition trace that reaches it.
type CheckViolation struct {
	Invariant string   `json:"invariant"`
	Detail    string   `json:"detail"`
	Outcome   string   `json:"outcome,omitempty"`
	Trace     []string `json:"trace,omitempty"`
}

// CheckReport is one check cell's full result in canonical wire form.
// Outcomes holds sorted outcome keys (litmus.Outcome.Key); States is
// per-cell deterministic but shard-count-dependent in aggregate, which
// is why it lives in the report and not the verdict.
type CheckReport struct {
	Schema    string          `json:"schema"`
	Program   string          `json:"program"`
	Config    string          `json:"config"`
	Budget    int             `json:"budget"`
	Shard     *CheckShard     `json:"shard,omitempty"`
	States    int             `json:"states"`
	Outcomes  []string        `json:"outcomes"`
	Violation *CheckViolation `json:"violation"`
}

// checkReportSchema versions the report encoding.
const checkReportSchema = "denovogpu-checkreport/v2"

// checkVerdictSchema versions the verdict encoding.
const checkVerdictSchema = "denovogpu-checkverdict/v2"

// MarshalCheckReport serializes a report canonically (the cache
// payload and sweepd report-endpoint format for check cells): two byte
// slices are equal iff the explorations they came from agreed exactly.
func MarshalCheckReport(r CheckReport) ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// UnmarshalCheckReport parses canonical check-report bytes, rejecting
// other schemas — a simulation report or future encoding must not
// silently round-trip through the checker's merge.
func UnmarshalCheckReport(data []byte) (CheckReport, error) {
	var r CheckReport
	if err := json.Unmarshal(data, &r); err != nil {
		return CheckReport{}, fmt.Errorf("denovogpu: parsing check report: %w", err)
	}
	if r.Schema != checkReportSchema {
		return CheckReport{}, fmt.Errorf("denovogpu: check report schema %q, want %q", r.Schema, checkReportSchema)
	}
	return r, nil
}

// RunCheckCell executes one check cell — the whole exploration, or one
// shard of it — and returns its canonical report bytes plus the states
// count for progress accounting. A *mcheck.BudgetError (or any other
// exploration error) is returned as an error, not encoded in a report:
// budget exhaustion is not a verdict, and sweepd's fail-fast plus
// lowest-index error semantics handle it exactly as api.RunMatrix
// would.
func RunCheckCell(s CheckCellSpec) ([]byte, int, error) {
	cfg, p, opts, err := s.resolve()
	if err != nil {
		return nil, 0, err
	}
	var unit mcheck.Unit
	if s.Shard != nil {
		unit = mcheck.Unit{Prefix: s.Shard.Prefix, Sleep: s.Shard.Sleep}
	}
	res, err := mcheck.CheckShard(cfg, p, opts, unit)
	if err != nil {
		return nil, 0, err
	}
	r := CheckReport{
		Schema:    checkReportSchema,
		Program:   p.Name,
		Config:    cfg.Name(),
		Budget:    opts.Budget,
		Shard:     s.Shard,
		States:    res.States,
		Outcomes:  sortedOutcomeKeys(res.Outcomes),
		Violation: wireViolation(res.Violation),
	}
	data, err := MarshalCheckReport(r)
	if err != nil {
		return nil, 0, err
	}
	return data, res.States, nil
}

func sortedOutcomeKeys(outcomes map[string]litmus.Outcome) []string {
	keys := make([]string, 0, len(outcomes))
	for k := range outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func wireViolation(v *mcheck.Violation) *CheckViolation {
	if v == nil {
		return nil
	}
	w := &CheckViolation{Invariant: v.Invariant, Detail: v.Detail, Trace: v.Trace}
	if v.Observed != nil {
		w.Outcome = v.Observed.Key()
	}
	return w
}

// CheckVerdict is the shard-count-independent summary of one checked
// (program, configuration) cell.
type CheckVerdict struct {
	Schema    string          `json:"schema"`
	Program   string          `json:"program"`
	Config    string          `json:"config"`
	Budget    int             `json:"budget"`
	Outcomes  []string        `json:"outcomes"`
	Violation *CheckViolation `json:"violation"`
}

// MergeCheckVerdict merges per-shard reports (in unit order; a serial
// run is the one-report case) into the cell's verdict: outcome keys
// unioned and sorted, the first report's violation winning (lowest
// shard index — sweepd's deterministic error convention). States is
// deliberately absent: per-shard totals are deterministic, their sum
// across shard counts is not, and the verdict is the artifact pinned
// byte-for-byte against a serial run. Reports must agree on program,
// config and budget.
func MergeCheckVerdict(reports []CheckReport) (CheckVerdict, error) {
	if len(reports) == 0 {
		return CheckVerdict{}, fmt.Errorf("denovogpu: merging zero check reports")
	}
	v := CheckVerdict{
		Schema:  checkVerdictSchema,
		Program: reports[0].Program,
		Config:  reports[0].Config,
		Budget:  reports[0].Budget,
	}
	union := make(map[string]bool)
	for i, r := range reports {
		if r.Program != v.Program || r.Config != v.Config || r.Budget != v.Budget {
			return CheckVerdict{}, fmt.Errorf("denovogpu: check report %d (%s under %s, budget %d) does not belong to cell %s under %s, budget %d",
				i, r.Program, r.Config, r.Budget, v.Program, v.Config, v.Budget)
		}
		for _, k := range r.Outcomes {
			union[k] = true
		}
		if v.Violation == nil && r.Violation != nil {
			v.Violation = r.Violation
		}
	}
	v.Outcomes = make([]string, 0, len(union))
	for k := range union {
		v.Outcomes = append(v.Outcomes, k)
	}
	sort.Strings(v.Outcomes)
	return v, nil
}

// MarshalCheckVerdict serializes a verdict canonically; for a clean
// program these bytes are identical between a serial run and any
// sharding, at any worker count.
func MarshalCheckVerdict(v CheckVerdict) ([]byte, error) {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// CheckVerdictFileName is the canonical artifact name for one cell's
// verdict ("+" appears in both program and config names and is not
// filesystem-friendly).
func CheckVerdictFileName(program, config string) string {
	return "check_" + ReportFileName(strings.ReplaceAll(program, "+", "-"), config)
}
