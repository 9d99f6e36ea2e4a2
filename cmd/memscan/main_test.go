package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunScanSSH(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-server", "ssh", "-conns", "4", "-mem-mb", "16", "-seed", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"address", "part", "allocated", "unallocated", "total="} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunScanApacheProtected(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-server", "apache", "-level", "library", "-conns", "4",
		"-mem-mb", "16", "-seed", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "unallocated=0") {
		t.Fatalf("protected scan should show no ghosts:\n%s", out.String())
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
	// A negative count is refused, naming its flag, before a machine boots.
	for _, flag := range []string{"-conns"} {
		out.Reset()
		err := run([]string{flag, "-3"}, &out)
		if err == nil || !strings.Contains(err.Error(), flag) || out.Len() != 0 {
			t.Fatalf("%s -3: err = %v, output %q; want an error naming the flag and no output", flag, err, out.String())
		}
	}
}

func TestRunScanWithTrace(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-server", "ssh", "-conns", "4", "-mem-mb", "16",
		"-seed", "3", "-trace"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "kernel events recorded") {
		t.Fatalf("trace summary missing:\n%s", text)
	}
	if !strings.Contains(text, "history of page") {
		t.Fatal("ghost page history missing")
	}
}
