// Command keyrecover demonstrates the realistic end of the attack chain:
// boot a victim machine, drive traffic, capture a memory disclosure, and
// reconstruct the private key from the capture using ONLY the public key
// (PEM armor scan, DER structure scan, factor scan). It prints what was
// recovered, by which method, and proves the recovered key signs.
//
// Usage:
//
//	keyrecover -server ssh -level none -conns 10
//	keyrecover -server apache -level integrated -dump full
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"memshield"
	"memshield/internal/protect"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "keyrecover:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("keyrecover", flag.ContinueOnError)
	var (
		server = fs.String("server", "ssh", "victim server: ssh or apache")
		level  = fs.String("level", "none", "protection level deployed on the victim")
		conns  = fs.Int("conns", 10, "connections the server handles before the capture")
		dump   = fs.String("dump", "tty", "capture: tty (~50% of RAM) or full")
		stride = fs.Int("stride", 16, "factor-scan stride in bytes (1 = exhaustive)")
		memMB  = fs.Int("mem-mb", 16, "simulated physical memory in MiB")
		seed   = fs.Int64("seed", 2007, "seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *conns < 0 {
		return fmt.Errorf("-conns must not be negative, got %d", *conns)
	}
	lvl, err := protect.ParseLevel(*level)
	if err != nil {
		return err
	}
	m, err := memshield.NewMachine(memshield.MachineConfig{
		MemoryMB: *memMB, Protection: lvl, Seed: *seed,
	})
	if err != nil {
		return err
	}
	key, err := m.InstallKey("/etc/ssl/private/server.key", 512)
	if err != nil {
		return err
	}
	var connect func() (int, error)
	switch *server {
	case "ssh", "openssh":
		s, err := m.StartSSH(lvl, key.Path)
		if err != nil {
			return err
		}
		connect = s.Connect
	case "apache", "httpd":
		s, err := m.StartApache(lvl, key.Path)
		if err != nil {
			return err
		}
		connect = s.Connect
	default:
		return fmt.Errorf("unknown server %q", *server)
	}
	for i := 0; i < *conns; i++ {
		if _, err := connect(); err != nil {
			return err
		}
	}

	// Capture.
	var image []byte
	switch *dump {
	case "full":
		image = m.DumpMemory()
	case "tty":
		res, err := m.RunTTYAttack(key, 0)
		if err != nil {
			return err
		}
		// Re-derive the captured window for the recovery pass: the tty
		// result reports the window; recovery needs the bytes, which a
		// real exploit would have written to a file. Use a full-memory
		// capture restricted to the disclosed window for the same effect.
		full := m.DumpMemory()
		if res.Offset+res.Size <= len(full) {
			image = full[res.Offset : res.Offset+res.Size]
		} else {
			image = append(append([]byte{}, full[res.Offset:]...), full[:res.Offset+res.Size-len(full)]...)
		}
		fmt.Fprintf(out, "captured %d bytes (~%.0f%% of RAM) at offset %#x\n",
			res.Size, 100*float64(res.Size)/float64(len(full)), res.Offset)
	default:
		return fmt.Errorf("unknown dump kind %q", *dump)
	}

	fmt.Fprintf(out, "victim: %s at level %s, %d connections; attacker holds only the public key\n",
		*server, lvl, *conns)
	rec := memshield.RecoverKey(image, key, memshield.RecoveryOptions{
		FactorStride: *stride,
	})
	fmt.Fprintf(out, "factor-scan candidates tested: %d\n", rec.Tested)
	if !rec.Success() {
		fmt.Fprintln(out, "RESULT: no key recovered from this capture")
		return nil
	}
	for _, hit := range rec.Hits {
		fmt.Fprintf(out, "recovered key at offset %#x via %s scan\n", hit.Offset, hit.Method)
	}
	// Prove it.
	sig, err := rec.First().SignPKCS1v15([]byte("attacker-controlled message"))
	if err != nil {
		return err
	}
	if err := key.Private.PublicKey.VerifyPKCS1v15([]byte("attacker-controlled message"), sig); err != nil {
		return fmt.Errorf("recovered key failed to sign: %w", err)
	}
	fmt.Fprintln(out, "RESULT: private key fully compromised (signature verified)")
	return nil
}
