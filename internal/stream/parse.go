package stream

import (
	"strings"

	"repro/internal/compress"
)

// ParseFactory builds a compressor factory from a spec of the
// compress.Registry grammar that has an online form (see
// compress.OnlineGrammar), or "none" for no compression, which yields a nil
// factory. Otherwise the factory yields a fresh compressor per call.
func ParseFactory(spec string) (func() Compressor, error) {
	if strings.EqualFold(strings.TrimSpace(spec), "none") {
		return nil, nil
	}
	newEngine, err := compress.ParseOnline(spec)
	if err != nil {
		return nil, err
	}
	return func() Compressor { return wrap(newEngine()) }, nil
}
