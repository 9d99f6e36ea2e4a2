package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunExt2Attack(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-attack", "ext2", "-server", "ssh", "-conns", "5",
		"-dirs", "300", "-mem-mb", "16", "-seed", "1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "ext2 leak") || !strings.Contains(text, "attack success: true") {
		t.Fatalf("output: %s", text)
	}
}

func TestRunTTYAttackProtected(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-attack", "tty", "-server", "apache", "-level", "integrated",
		"-conns", "4", "-trials", "8", "-mem-mb", "16", "-seed", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "success rate:") {
		t.Fatalf("output: %s", out.String())
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
	if err := run([]string{"-attack", "rowhammer", "-conns", "1", "-mem-mb", "16"}, &out); err == nil {
		t.Fatal("bad attack: want error")
	}
	// A negative count is refused, naming its flag, before a machine boots.
	for _, flag := range []string{"-conns", "-dirs", "-trials"} {
		out.Reset()
		err := run([]string{flag, "-3"}, &out)
		if err == nil || !strings.Contains(err.Error(), flag) || out.Len() != 0 {
			t.Fatalf("%s -3: err = %v, output %q; want an error naming the flag and no output", flag, err, out.String())
		}
	}
}
