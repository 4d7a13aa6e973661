package incr

import (
	"github.com/netverify/vmn/internal/symmetry"
	"github.com/netverify/vmn/internal/tf"
)

// CompiledState exposes the session's per-scenario engines and symmetry
// groups, so the external tests can assert when an Apply reuses them.
func (s *Session) CompiledState() ([]*tf.Engine, []symmetry.Group) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engines, s.groups
}
