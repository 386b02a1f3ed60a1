// The benchmark is a module of its own so that it builds with nothing but
// this directory's files plus the program it measures: `replace` points at
// the parent module, and the volcast/ prefix is what lets it import the
// parent's internal packages from outside.
module volcast/bench

go 1.22

require volcast v0.0.0

replace volcast => ../
