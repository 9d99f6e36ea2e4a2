package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSmoke(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-storms", "2", "-steps", "40", "-seed", "11"}, &out)
	if err != nil {
		t.Fatalf("soak run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "soak: 2 storms") {
		t.Fatalf("missing summary line:\n%s", out.String())
	}
}

func TestRunVerifyAndLogArtifact(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "events.log")
	var out strings.Builder
	err := run([]string{
		"-storms", "3", "-steps", "60", "-seed", "11",
		"-workers", "3", "-verify", "-log", logPath,
	}, &out)
	if err != nil {
		t.Fatalf("soak -verify: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "replay byte-identical") {
		t.Fatalf("verify line missing:\n%s", out.String())
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "=== storm 0 ===") || !strings.Contains(string(data), "fingerprint=") {
		t.Fatalf("event log artifact malformed:\n%.400s", data)
	}
	// The artifact replays: a second identical invocation writes the
	// same bytes.
	logPath2 := filepath.Join(t.TempDir(), "events2.log")
	var out2 strings.Builder
	if err := run([]string{
		"-storms", "3", "-steps", "60", "-seed", "11",
		"-workers", "1", "-log", logPath2,
	}, &out2); err != nil {
		t.Fatal(err)
	}
	data2, err := os.ReadFile(logPath2)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("event log differs across replays/worker counts")
	}
}

func TestRunApacheSealed(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-server", "apache", "-storms", "1", "-steps", "50", "-seed", "5"}, &out); err != nil {
		t.Fatalf("apache soak: %v\n%s", err, out.String())
	}
}

func TestRunFleetMode(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "fleet.log")
	var out strings.Builder
	err := run([]string{
		"-fleet", "4", "-rounds", "6", "-steps", "40",
		"-budget", "2", "-seed", "2007", "-workers", "4",
		"-verify", "-log", logPath,
	}, &out)
	if err != nil {
		t.Fatalf("fleet soak: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "fleet storm replays byte-identical") {
		t.Fatalf("verify line missing:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "fleet soak: 4 machines") {
		t.Fatalf("summary line missing:\n%s", out.String())
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "fleetstorm machines=4") {
		t.Fatalf("fleet log artifact malformed:\n%.400s", data)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-server", "nginx"}, &out); err == nil {
		t.Fatal("unknown server must error")
	}
	if err := run([]string{"-level", "paranoid"}, &out); err == nil {
		t.Fatal("unknown level must error")
	}
	// A negative count is refused, naming its flag, before a machine boots.
	for _, flag := range []string{"-storms", "-steps", "-fleet", "-rounds", "-budget"} {
		out.Reset()
		err := run([]string{flag, "-3"}, &out)
		if err == nil || !strings.Contains(err.Error(), flag) || out.Len() != 0 {
			t.Fatalf("%s -3: err = %v, output %q; want an error naming the flag and no output", flag, err, out.String())
		}
	}
}
