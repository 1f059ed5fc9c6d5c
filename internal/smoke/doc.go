// Package smoke is the tier-2 end-to-end harness: one tagged test
// package that builds the CLIs once (emserve and emcasestudy with
// -race), generates one projected slice and spec once,
// and then runs five scenarios against the real binaries — serve, obs,
// load, monitor and chaos: the serving, observability, load, monitoring
// and kill/rerun contracts — every
// emserve started, killed and drained through load.ServerProc, every
// request sent through load.Client.
//
//	go test -tags smoke -count=1 -v ./internal/smoke                       # make smoke
//	go test -tags smoke -count=1 -v ./internal/smoke -run TestSmoke/obs    # one scenario
//
// The tests carry the smoke build tag so tier-1 (`go test ./...`) stays
// hermetic and fast; this untagged file keeps the package listed by
// `./...`, and `make vet` vets it with the tag on.
package smoke
