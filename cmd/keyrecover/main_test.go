package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRecoverFromUnprotectedFullDump(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-server", "ssh", "-level", "none", "-conns", "4",
		"-dump", "full", "-mem-mb", "8", "-seed", "1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "private key fully compromised") {
		t.Fatalf("output: %s", out.String())
	}
}

func TestRecoverIntegratedStillFactorsOnFullDump(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-server", "apache", "-level", "integrated", "-conns", "4",
		"-dump", "full", "-mem-mb", "8", "-seed", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "via factor scan") {
		t.Fatalf("integrated full dump should fall back to factor scan:\n%s", text)
	}
}

func TestTTYDumpMayMissProtectedKey(t *testing.T) {
	// A ~50% capture against the integrated solution either factors the
	// one aligned copy or finds nothing; both are valid outputs, the
	// command must just not error.
	var out bytes.Buffer
	err := run([]string{"-server", "ssh", "-level", "integrated", "-conns", "4",
		"-dump", "tty", "-mem-mb", "8", "-seed", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "RESULT:") {
		t.Fatal("missing verdict line")
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-level", "bogus"}, &out); err == nil {
		t.Fatal("bad level: want error")
	}
	if err := run([]string{"-server", "ftp"}, &out); err == nil {
		t.Fatal("bad server: want error")
	}
	if err := run([]string{"-dump", "lasers", "-conns", "1", "-mem-mb", "8"}, &out); err == nil {
		t.Fatal("bad dump kind: want error")
	}
	// A negative count is refused, naming its flag, before a machine boots.
	for _, flag := range []string{"-conns"} {
		out.Reset()
		err := run([]string{flag, "-3"}, &out)
		if err == nil || !strings.Contains(err.Error(), flag) || out.Len() != 0 {
			t.Fatalf("%s -3: err = %v, output %q; want an error naming the flag and no output", flag, err, out.String())
		}
	}
}
