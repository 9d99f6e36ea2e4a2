// Package buildtags declares one name in two files under opposite build
// constraints, so it type-checks only if the loader skips the file the go
// command would not build.
package buildtags

// Side names the file that was built.
const Side = "on"
