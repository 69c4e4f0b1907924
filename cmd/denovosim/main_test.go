package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"denovogpu/internal/obs"
)

func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestList(t *testing.T) {
	code, out, _ := runCmd(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, bench := range []string{"LAVA", "FAM_G", "UTS"} {
		if !strings.Contains(out, bench) {
			t.Fatalf("-list output missing %s:\n%s", bench, out)
		}
	}
}

func TestRunBenchmark(t *testing.T) {
	code, out, errb := runCmd(t, "-bench", "LAVA", "-config", "DD", "-counters")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{"benchmark   LAVA", "config      DD", "exec time", "energy", "traffic", "counters"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestMsgTraceGoesToStderr(t *testing.T) {
	code, _, errb := runCmd(t, "-bench", "LAVA", "-config", "DD", "-msgtrace", "3")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if errb == "" {
		t.Fatal("-msgtrace produced no protocol messages on stderr")
	}
}

func TestObservabilityOutputs(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.csv")
	metricsJSON := filepath.Join(dir, "metrics.json")

	code, _, errb := runCmd(t, "-bench", "SPM_G", "-config", "DD",
		"-trace", tracePath, "-metrics", metricsPath, "-sample-every", "500")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(traceData); err != nil {
		t.Fatalf("-trace output is not a valid Chrome trace: %v", err)
	}
	metricsData, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateCSV(metricsData); err != nil {
		t.Fatalf("-metrics output is not a valid metrics CSV: %v", err)
	}

	// .json extension switches the metrics dump to the columnar JSON form.
	code, _, errb = runCmd(t, "-bench", "SPM_G", "-config", "DD", "-metrics", metricsJSON)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	jsonData, err := os.ReadFile(metricsJSON)
	if err != nil {
		t.Fatal(err)
	}
	var series obs.Series
	if err := json.Unmarshal(jsonData, &series); err != nil {
		t.Fatalf("-metrics .json output is not valid JSON: %v", err)
	}
	if len(series.Cols) == 0 || series.Cols[0] != "cycle" || series.Rows() == 0 {
		t.Fatalf("-metrics .json output malformed: cols=%v rows=%d", series.Cols, series.Rows())
	}
}

// TestObservabilityDoesNotPerturb asserts the cost contract: a run with
// tracing and sampling on reports the same cycles and fired events as a
// plain run.
func TestObservabilityDoesNotPerturb(t *testing.T) {
	dir := t.TempDir()
	code, plain, errb := runCmd(t, "-bench", "SPM_G", "-config", "DD")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	code, observed, errb := runCmd(t, "-bench", "SPM_G", "-config", "DD",
		"-trace", filepath.Join(dir, "t.json"), "-metrics", filepath.Join(dir, "m.csv"))
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if plain != observed {
		t.Fatalf("observability changed the report:\nplain:\n%s\nobserved:\n%s", plain, observed)
	}
}

func TestErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // expected on stderr
	}{
		{"no bench", nil, "-bench is required"},
		{"bad flag", []string{"-nope"}, "flag provided but not defined"},
		{"unknown bench", []string{"-bench", "NOPE"}, "NOPE"},
		{"unknown config", []string{"-bench", "LAVA", "-config", "ZZ"}, "unknown configuration"},
		{"msgtrace multi-device", []string{"-bench", "SPM_Gx2", "-devices", "2", "-msgtrace", "3"}, "use -trace on multi-device"},
		{"store buffer too large", []string{"-bench", "LAVA", "-sbentries", "65537"}, "exceeds the store buffer limit of 65536"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			code, _, errb := runCmd(t, c.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, errb)
			}
			if !strings.Contains(errb, c.want) {
				t.Fatalf("stderr missing %q:\n%s", c.want, errb)
			}
		})
	}
}
