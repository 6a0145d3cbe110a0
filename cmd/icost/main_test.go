package main

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// exec runs the CLI against buffers and returns (exit, stdout, stderr).
func exec(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

var smallArgs = []string{"-n", "2000", "-warmup", "1000"}

func TestBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"unknown flag", []string{"-nope"}, 2},
		{"non-numeric n", []string{"-n", "many"}, 2},
		{"negative n", []string{"-n", "-5"}, 1},
		{"unknown benchmark", append([]string{"-bench", "nosuch"}, smallArgs...), 1},
		{"unknown focus", append([]string{"-focus", "zap"}, smallArgs...), 1},
		{"unknown full category", append([]string{"-full", "dmiss,zap"}, smallArgs...), 1},
		{"bad dot range", append([]string{"-dot", "xyz"}, smallArgs...), 1},
		{"missing load file", []string{"-load", "/nonexistent/trace.bin"}, 1},
		{"engine with save", append([]string{"-engine", "-save", "/tmp/x"}, smallArgs...), 1},
		{"engine unknown bench", append([]string{"-engine", "-bench", "nosuch"}, smallArgs...), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := exec(t, tc.args...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d (stderr %q)", code, tc.code, stderr)
			}
			if stderr == "" {
				t.Fatal("no diagnostic on stderr")
			}
		})
	}
}

func TestBreakdownRun(t *testing.T) {
	code, stdout, stderr := exec(t, append([]string{"-bench", "mcf"}, smallArgs...)...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "mcf:") || !strings.Contains(stdout, "cycles") {
		t.Fatalf("unexpected output: %q", stdout)
	}
}

func TestEngineModeMatchesDirect(t *testing.T) {
	args := append([]string{"-bench", "mcf", "-slack"}, smallArgs...)
	code, direct, stderr := exec(t, args...)
	if code != 0 {
		t.Fatalf("direct run exit %d: %s", code, stderr)
	}
	code, engineOut, stderr := exec(t, append(args, "-engine")...)
	if code != 0 {
		t.Fatalf("engine run exit %d: %s", code, stderr)
	}
	var resp struct {
		Op    string `json:"op"`
		Bench string `json:"bench"`
		Slack struct {
			Insts    int `json:"insts"`
			Critical int `json:"critical"`
		} `json:"slack"`
	}
	if err := json.Unmarshal([]byte(engineOut), &resp); err != nil {
		t.Fatalf("engine output is not JSON: %v\n%s", err, engineOut)
	}
	if resp.Op != "slack" || resp.Bench != "mcf" {
		t.Fatalf("wrong response: %+v", resp)
	}
	// The direct -slack view prints the same critical count; check the
	// two code paths agree on it.
	want := criticalCount(t, direct)
	if resp.Slack.Critical != want {
		t.Fatalf("engine critical=%d, direct critical=%d", resp.Slack.Critical, want)
	}
	if resp.Slack.Insts == 0 {
		t.Fatal("engine slack summary empty")
	}
}

// criticalCount extracts the "critical (slack = 0)" count from the
// direct -slack text output.
func criticalCount(t *testing.T, out string) int {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "critical (slack = 0):") {
			fields := strings.Fields(strings.SplitAfter(line, ":")[1])
			v, err := strconv.Atoi(fields[0])
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no critical line in %q", out)
	return 0
}
