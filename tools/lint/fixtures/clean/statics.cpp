// Fixture: statics the shared-static rule must accept (negative
// control): immutable, per-thread, or functions. Never compiled.
#include <cstddef>
#include <cstdint>

namespace fixture {

static constexpr std::size_t kSlots = 64;
static const char* const kName = "fixture";
const static int kAlsoConst = 1;

struct Pool {
  static constexpr bool kPooled = true;
  static Pool& local();
  static std::size_t slot(std::uint64_t v);
};

Pool& Pool::local() {
  static thread_local Pool pool;
  return pool;
}

static std::size_t wrap(std::size_t i) { return i % kSlots; }

static_assert(kSlots == 64);

}  // namespace fixture
