//go:build !race

package raceflag

const enabled = false
