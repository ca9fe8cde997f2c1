// Fixture: mutable statics that parallel fleet AZ workers would share.
// Must trip `shared-static` (four sites). Never compiled.
#include <cstdint>
#include <vector>

namespace fixture {

static std::uint64_t packets_seen = 0;   // namespace scope
static std::vector<const char*> names;   // const only inside <...>

struct Registry {
  static inline int instances = 0;       // class member
};

std::uint64_t next_flow_id() {
  static std::uint64_t counter{0};       // function-local
  return ++counter;
}

}  // namespace fixture
