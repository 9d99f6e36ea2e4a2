// Package host is where the simulated machines of every experiment are
// made. It holds the two decisions each driver used to copy by hand:
//
//   - The boot order. Boot runs kernel.New, writes each key's PEM file
//     through InstallKey, then scrambles free memory. The file's bytes
//     enter physical memory only when a read pulls them into the page
//     cache (the unprotected timeline pre-caches the PEM, which is Fig 5's
//     single copy at t=0), and that read lands on the scrambled free lists.
//   - The server handle. Server is the one interface a driver holds on a
//     running sshd or httpd, or on a supervisor wrapping one; SSHD and
//     HTTPD adapt the two servers to it.
//
// Machines that need another order call kernel.New themselves and share
// only InstallKey (DESIGN.md "Host boot").
package host

import (
	"memshield/internal/crypto/rsakey"
	"memshield/internal/kernel"
	"memshield/internal/scrub"
	"memshield/internal/server/httpd"
	"memshield/internal/server/sshd"
)

// Key is one key file Boot installs.
type Key struct {
	Path string
	Key  *rsakey.PrivateKey
}

// Boot makes a machine: kernel.New(kc), each key's PEM file written in
// order through InstallKey, then ScrambleFreeMemory(scrambleSeed). Errors
// come back unwrapped; the caller adds its own prefix.
func Boot(kc kernel.Config, scrambleSeed int64, keys ...Key) (*kernel.Kernel, error) {
	k, err := kernel.New(kc)
	if err != nil {
		return nil, err
	}
	for _, key := range keys {
		if err := InstallKey(k, key.Path, key.Key); err != nil {
			return nil, err
		}
	}
	if err := k.ScrambleFreeMemory(scrambleSeed); err != nil {
		return nil, err
	}
	return k, nil
}

// InstallKey writes key's PEM file at path on the machine's filesystem and
// scrubs the native copy. The filesystem error comes back unwrapped:
// storm logs print it as is.
func InstallKey(k *kernel.Kernel, path string, key *rsakey.PrivateKey) error {
	pem := key.MarshalPEM()
	defer scrub.Bytes(pem)
	return k.FS().WriteFile(path, pem)
}

// Kind names a server.
type Kind string

// Kinds.
const (
	KindSSHD  Kind = "sshd"
	KindHTTPD Kind = "httpd"
)

// Server is a running server as every driver sees it. Churn moves n
// payload bytes over an open connection; Maintain is periodic pool
// upkeep; PID is the process holding the key.
type Server interface {
	Connect() (int, error)
	Churn(id, n int) error
	Disconnect(id int) error
	Maintain() error
	Stop() error
	PID() int
	Running() bool
}

// SSHD is an sshd as a Server: a churn is one file transfer, there is no
// pool to maintain, and the key lives in the master.
type SSHD struct{ *sshd.Server }

// Churn transfers n bytes over connection id.
func (s SSHD) Churn(id, n int) error { return s.Transfer(id, n) }

// Maintain does nothing: sshd forks a child per connection.
func (s SSHD) Maintain() error { return nil }

// PID returns the master's PID.
func (s SSHD) PID() int { return s.MasterPID() }

// HTTPD is an httpd as a Server: a churn is one request, maintenance
// trims the prefork pool, and the key lives in the parent.
type HTTPD struct{ *httpd.Server }

// Churn serves one n-byte request over connection id.
func (s HTTPD) Churn(id, n int) error { return s.Request(id, n) }

// Maintain reaps and forks workers to keep the spare pool in bounds.
func (s HTTPD) Maintain() error { return s.MaintainSpares() }

// PID returns the parent's PID.
func (s HTTPD) PID() int { return s.ParentPID() }
