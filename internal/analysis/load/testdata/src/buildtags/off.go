//go:build memlint_never

package buildtags

// Side names the file that was built.
const Side = "off"
