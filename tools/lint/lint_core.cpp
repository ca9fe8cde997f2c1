#include "lint_core.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <utility>

namespace albatross::lint {
namespace {

// ---------------------------------------------------------------------------
// Source preprocessing

/// Blanks out comments and string/character literals while preserving
/// line structure, so rule regexes never fire inside prose or data.
/// Handles //, /* */, "..." with escapes, '...' and basic raw strings.
std::string strip_comments_and_strings(std::string_view src) {
  std::string out(src);
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRaw };
  State st = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (st) {
      case State::kCode:
        if (c == '/' && next == '/') {
          st = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          st = State::kBlockComment;
          out[i] = ' ';
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   src[i - 1])) &&
                               src[i - 1] != '_'))) {
          // R"delim( — capture the delimiter up to '('.
          std::size_t j = i + 2;
          raw_delim.clear();
          while (j < src.size() && src[j] != '(') raw_delim += src[j++];
          st = State::kRaw;
        } else if (c == '"') {
          st = State::kString;
        } else if (c == '\'' && i > 0 &&
                   !std::isdigit(static_cast<unsigned char>(src[i - 1]))) {
          // A ' after a digit is a C++14 digit separator, not a char
          // literal — leave numeric literals intact for the rules.
          st = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n')
          st = State::kCode;
        else
          out[i] = ' ';
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          st = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') {
            if (i + 1 < src.size()) out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          st = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < src.size()) out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          st = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kRaw: {
        const std::string closer = ")" + raw_delim + "\"";
        if (c == ')' && src.substr(i, closer.size()) == closer) {
          for (std::size_t k = 0; k < closer.size(); ++k) out[i + k] = ' ';
          i += closer.size() - 1;
          st = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      }
    }
  }
  return out;
}

std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const auto nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.emplace_back(text.substr(start));
      break;
    }
    lines.emplace_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

bool contains(std::string_view hay, std::string_view needle) {
  return hay.find(needle) != std::string_view::npos;
}

bool is_header(std::string_view path) {
  return path.ends_with(".hpp") || path.ends_with(".h") ||
         path.ends_with(".hh");
}

// ---------------------------------------------------------------------------
// Rule machinery

struct RuleContext {
  std::string_view path;
  const std::vector<std::string>& code;      // stripped lines, 0-based
  const std::vector<std::string>& raw;       // original lines, 0-based
  const std::string& stripped;               // whole stripped text
};

class Sink {
 public:
  Sink(std::string_view path, const std::vector<std::string>& raw_lines,
       const Config& config, std::vector<Finding>& out)
      : path_(path), raw_(raw_lines), config_(config), out_(out) {}

  void report(int line_no, std::string rule, std::string message) {
    Finding f{std::string(path_), line_no, std::move(rule),
              std::move(message)};
    std::string_view raw_line;
    if (line_no >= 1 && line_no <= static_cast<int>(raw_.size())) {
      raw_line = raw_[static_cast<std::size_t>(line_no - 1)];
    }
    if (suppressed(f, raw_line, config_)) return;
    out_.push_back(std::move(f));
  }

 private:
  std::string_view path_;
  const std::vector<std::string>& raw_;
  const Config& config_;
  std::vector<Finding>& out_;
};

// --- wall-clock ------------------------------------------------------------

void rule_wall_clock(const RuleContext& ctx, Sink& sink) {
  static const std::regex re(
      R"(system_clock|steady_clock|high_resolution_clock|gettimeofday|clock_gettime|\btime\s*\(|\blocaltime\b|\bgmtime\b)");
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    if (std::regex_search(ctx.code[i], re)) {
      sink.report(static_cast<int>(i + 1), "wall-clock",
                  "real-time clock read; the simulation runs on virtual "
                  "NanoTime only");
    }
  }
}

// --- nondeterministic-rng --------------------------------------------------

void rule_rng(const RuleContext& ctx, Sink& sink) {
  // The one seeded PRNG lives in src/common/rng; everything else must
  // draw from it so ALBATROSS_TEST_SEED replays byte-identically.
  if (contains(ctx.path, "common/rng")) return;
  static const std::regex re(
      R"(std::random_device|\bmt19937(_64)?\b|\brand\s*\(|\bsrand\s*\(|\brandom_shuffle\b)");
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    if (std::regex_search(ctx.code[i], re)) {
      sink.report(static_cast<int>(i + 1), "nondeterministic-rng",
                  "nondeterministic randomness; use the seeded "
                  "albatross::Rng (src/common/rng)");
    }
  }
}

// --- unordered-iteration ---------------------------------------------------

bool in_determinism_scope(std::string_view path) {
  return contains(path, "nic/") || contains(path, "gateway/") ||
         contains(path, "sim/") || contains(path, "check/") ||
         contains(path, "dpu/") || contains(path, "fleet/");
}

/// Collects identifiers declared with an unordered_{map,set} type in
/// this translation unit (declaration may span lines).
std::set<std::string> unordered_decl_names(const std::string& stripped) {
  std::set<std::string> names;
  // Whitespace-normalized copy so multi-line declarations match.
  std::string flat;
  flat.reserve(stripped.size());
  bool in_ws = false;
  for (const char c : stripped) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!in_ws) flat += ' ';
      in_ws = true;
    } else {
      flat += c;
      in_ws = false;
    }
  }
  static const std::regex decl_re(
      R"(unordered_(?:map|set)\s*<[^;{}()]{0,400}?>\s+([A-Za-z_]\w*)\s*[;{=])");
  for (auto it = std::sregex_iterator(flat.begin(), flat.end(), decl_re);
       it != std::sregex_iterator(); ++it) {
    names.insert((*it)[1].str());
  }
  return names;
}

std::string trailing_identifier(std::string_view expr) {
  std::size_t end = expr.size();
  while (end > 0 &&
         std::isspace(static_cast<unsigned char>(expr[end - 1]))) {
    --end;
  }
  std::size_t begin = end;
  while (begin > 0 && (std::isalnum(static_cast<unsigned char>(
                           expr[begin - 1])) ||
                       expr[begin - 1] == '_')) {
    --begin;
  }
  return std::string(expr.substr(begin, end - begin));
}

void rule_unordered_iteration(const RuleContext& ctx, Sink& sink) {
  if (!in_determinism_scope(ctx.path)) return;
  const auto decls = unordered_decl_names(ctx.stripped);
  static const std::regex range_for_re(R"(for\s*\(([^;)]*):([^)]*)\))");
  static const std::regex begin_re(R"(([A-Za-z_]\w*)\.begin\s*\(\s*\))");
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    const auto& line = ctx.code[i];
    std::smatch m;
    if (std::regex_search(line, m, range_for_re)) {
      const std::string range_expr = m[2].str();
      const std::string id = trailing_identifier(range_expr);
      if (contains(range_expr, "unordered_") ||
          (!id.empty() && decls.count(id) != 0)) {
        sink.report(static_cast<int>(i + 1), "unordered-iteration",
                    "iterating an unordered container here can leak "
                    "hash-map order into packet ordering or output; "
                    "sort keys first or use an ordered container");
        continue;
      }
    }
    if (contains(line, "for") &&
        std::regex_search(line, m, begin_re) && decls.count(m[1].str()) != 0) {
      sink.report(static_cast<int>(i + 1), "unordered-iteration",
                  "iterator loop over unordered container; hash-map "
                  "order must not reach packet ordering or output");
    }
  }
}

// --- naked-time-literal ----------------------------------------------------

void rule_naked_time_literal(const RuleContext& ctx, Sink& sink) {
  // common/types.hpp and common/units.hpp define the named constants and
  // converters and are the only files allowed to spell the factors.
  if (contains(ctx.path, "common/types.hpp") ||
      contains(ctx.path, "common/units.hpp")) {
    return;
  }
  // A raw power-of-1000 literal in a time construction/arithmetic
  // context. Two shapes: a kilo+ literal inside a Nanos/NanoTime
  // constructor, or */+- with a power-of-1000 on a line that touches a
  // time-typed expression.
  static const std::regex ctor_re(
      R"((NanoTime|Nanos)\s*\{[^}]*\d['0-9]*'000\b)");
  static const std::regex arith_re(
      R"([*/+\-]\s*1'000(?:'000)*\b|\b1'000(?:'000)*\s*[*/+\-]|[*+\-]\s*1e[369]\b)");
  static const std::regex time_ctx_re(
      R"(\b(NanoTime|Nanos)\b|_ns\b|\btimeout\w*\b|\bdeadline\w*\b)");
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    const auto& line = ctx.code[i];
    if (std::regex_search(line, ctor_re) ||
        (std::regex_search(line, arith_re) &&
         std::regex_search(line, time_ctx_re))) {
      sink.report(static_cast<int>(i + 1), "naked-time-literal",
                  "raw power-of-1000 factor in a time expression; use "
                  "_us/_ms literals, kMicrosecond/kSecond, or a named "
                  "converter from common/units.hpp");
    }
  }
}

// --- scalar-hot-path -------------------------------------------------------

bool in_hot_path_scope(std::string_view path) {
  return contains(path, "nic/") || contains(path, "gateway/");
}

void rule_scalar_hot_path(const RuleContext& ctx, Sink& sink) {
  // One-at-a-time ring drains in the packet hot path: a `.pop()` inside
  // a loop in src/nic or src/gateway defeats the burst API (pop_burst /
  // process_burst, docs/BURST_API.md) that the throughput numbers come
  // from. Scalar pops OUTSIDE loops (cold hooks, protocol paths) are
  // fine — only the drain-loop shape is flagged.
  if (!in_hot_path_scope(ctx.path)) return;
  static const std::regex pop_re(R"(\.pop\s*\(\s*\))");
  static const std::regex loop_re(R"(\b(while|for)\s*\()");
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    if (!std::regex_search(ctx.code[i], pop_re)) continue;
    // In-loop heuristic: the loop header is on this line (condition
    // pops) or within the preceding few lines (short drain bodies).
    const std::size_t lookback = i >= 3 ? i - 3 : 0;
    for (std::size_t j = lookback; j <= i; ++j) {
      if (std::regex_search(ctx.code[j], loop_re)) {
        sink.report(static_cast<int>(i + 1), "scalar-hot-path",
                    "one-at-a-time ring pop in a hot-path loop; drain "
                    "with pop_burst into a burst instead "
                    "(docs/BURST_API.md)");
        break;
      }
    }
  }
}

// --- header-hygiene --------------------------------------------------------

void rule_header_hygiene(const RuleContext& ctx, Sink& sink) {
  if (!is_header(ctx.path)) return;
  bool has_pragma = false;
  for (const auto& line : ctx.code) {
    if (contains(line, "#pragma once")) {
      has_pragma = true;
      break;
    }
  }
  if (!has_pragma) {
    sink.report(1, "header-hygiene", "header is missing #pragma once");
  }
  static const std::regex using_ns_re(R"(^\s*using\s+namespace\b)");
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    if (std::regex_search(ctx.code[i], using_ns_re)) {
      sink.report(static_cast<int>(i + 1), "header-hygiene",
                  "`using namespace` in a header leaks into every "
                  "includer; qualify names instead");
    }
  }
}

// --- shared-static ---------------------------------------------------------

/// Line number (1-based) of byte offset `pos` in `text`.
int line_of(const std::string& text, std::size_t pos) {
  return 1 + static_cast<int>(std::count(
                 text.begin(), text.begin() + static_cast<std::ptrdiff_t>(pos),
                 '\n'));
}

void rule_shared_static(const RuleContext& ctx, Sink& sink) {
  // FleetEngine runs every AZ on its own worker thread, so a mutable
  // `static` (namespace scope, function-local or class member) is state
  // two AZs would race on. const / constexpr statics are immutable and
  // thread_local ones are per worker. A declaration is read from
  // `static` to the first `(`, `;`, `=` or `{` outside template angle
  // brackets: `(` first means a function (a direct-initialised
  // `static T x(args);` reads as one too, so spell such a variable
  // with `=` or braces). The const check ignores template arguments, so
  // `static std::vector<const char*> v;` still fires.
  static const std::regex static_re(R"(\bstatic\b)");
  static const std::regex exempt_re(R"(\b(const|constexpr|thread_local)\b)");
  const std::string& text = ctx.stripped;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), static_re);
       it != std::sregex_iterator(); ++it) {
    const auto start = static_cast<std::size_t>(it->position());
    // Specifiers before `static` on the same statement (`const static`).
    std::size_t stmt = text.find_last_of(";{}", start);
    stmt = stmt == std::string::npos ? 0 : stmt + 1;
    std::string top_level = text.substr(stmt, start - stmt);
    int angle = 0;
    char terminator = '\0';
    for (std::size_t i = start; i < text.size(); ++i) {
      const char c = text[i];
      if (c == '<') {
        ++angle;
      } else if (c == '>' && angle > 0) {
        --angle;
      } else if (angle == 0) {
        if (c == '(' || c == ';' || c == '=' || c == '{') {
          terminator = c;
          break;
        }
        top_level += c;
      }
    }
    if (terminator == '(' || terminator == '\0') continue;
    if (std::regex_search(top_level, exempt_re)) continue;
    sink.report(line_of(text, start), "shared-static",
                "mutable static variable: FleetEngine runs AZs on "
                "parallel workers, so this state would be shared between "
                "them; make it const/constexpr, thread_local, or a member "
                "of the object that owns it");
  }
}

// --- fpga-* resource-budget rules ------------------------------------------
//
// Grammar: `// fpga: lut=<N>, bram_bits=<M>, cycles=<K>` on the class
// declaration line or in the contiguous `//` comment block directly
// above it. Numbers may use C++14 digit separators. An annotation
// states the module's whole-NIC instantiated cost at the default report
// geometry (docs/STATIC_ANALYSIS.md, "Resource-budget rules"), so
// summing every annotation partitions the chip.

constexpr std::string_view kFpgaMarker = "fpga:";

const std::regex& fpga_anno_re() {
  static const std::regex re(
      R"(//\s*fpga:\s*lut\s*=\s*([0-9']+)\s*,\s*bram_bits\s*=\s*([0-9']+)\s*,\s*cycles\s*=\s*([0-9']+))");
  return re;
}

std::optional<std::uint64_t> parse_separated_u64(std::string_view digits) {
  std::uint64_t v = 0;
  for (const char c : digits) {
    if (c == '\'') continue;
    if (v > (std::numeric_limits<std::uint64_t>::max() - 9) / 10) {
      return std::nullopt;
    }
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

/// Index of a non-forward class declaration on stripped line `i`, or
/// nullopt. Forward declarations reach `;` before `{`; template
/// parameter lists (`class T>`) are rejected by the lookahead.
std::optional<std::string> class_decl_name(
    const std::vector<std::string>& code, std::size_t i) {
  static const std::regex class_re(R"(^\s*class\s+([A-Za-z_]\w*))");
  std::smatch m;
  if (!std::regex_search(code[i], m, class_re)) return std::nullopt;
  // Scan from after the name for the first of '{' (definition) or
  // ';'/'>'/',' (forward declaration or template parameter).
  std::size_t col = static_cast<std::size_t>(m.position(1)) + m[1].length();
  for (std::size_t j = i; j < code.size() && j < i + 10; ++j) {
    for (std::size_t k = (j == i ? col : 0); k < code[j].size(); ++k) {
      const char c = code[j][k];
      if (c == '{') return m[1].str();
      if (c == ';' || c == '>' || c == ',') return std::nullopt;
    }
  }
  return std::nullopt;
}

struct AnnotationScan {
  std::vector<FpgaAnnotation> annotations;
  /// Class declarations without a parseable annotation:
  /// (line, class name, had a malformed `fpga:` marker nearby).
  struct Missing {
    int line = 0;
    std::string name;
    bool malformed = false;
  };
  std::vector<Missing> missing;
};

AnnotationScan scan_fpga_annotations(std::string_view path,
                                     const std::vector<std::string>& code,
                                     const std::vector<std::string>& raw) {
  AnnotationScan out;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const auto name = class_decl_name(code, i);
    if (!name) continue;
    // The annotation lives on the declaration line itself or in the
    // contiguous run of `//` comment lines directly above it.
    bool malformed = false;
    std::optional<FpgaAnnotation> found;
    const auto try_line = [&](std::size_t line_idx) {
      const std::string& line = raw[line_idx];
      std::smatch am;
      if (std::regex_search(line, am, fpga_anno_re())) {
        const auto lut = parse_separated_u64(am[1].str());
        const auto bram = parse_separated_u64(am[2].str());
        const auto cyc = parse_separated_u64(am[3].str());
        if (lut && bram && cyc &&
            *cyc <= static_cast<std::uint64_t>(
                        std::numeric_limits<std::int64_t>::max())) {
          FpgaAnnotation a;
          a.file = std::string(path);
          a.class_line = static_cast<int>(i + 1);
          a.annotation_line = static_cast<int>(line_idx + 1);
          a.module = *name;
          a.lut = *lut;
          a.bram_bits = *bram;
          a.cycles = static_cast<std::int64_t>(*cyc);
          a.raw_line = line;
          found = std::move(a);
          return;
        }
      }
      if (contains(line, "//") && contains(line, kFpgaMarker)) {
        malformed = true;
      }
    };
    try_line(i);
    for (std::size_t j = i; !found && j > 0; --j) {
      const std::string& above = raw[j - 1];
      const auto first = above.find_first_not_of(" \t");
      if (first == std::string::npos ||
          above.compare(first, 2, "//") != 0) {
        break;  // end of the contiguous doc-comment block
      }
      try_line(j - 1);
    }
    if (found) {
      out.annotations.push_back(std::move(*found));
    } else {
      out.missing.push_back(AnnotationScan::Missing{
          static_cast<int>(i + 1), *name, malformed});
    }
  }
  return out;
}

std::string format_bits(std::uint64_t bits) {
  std::ostringstream os;
  os << bits;
  return os.str();
}

void rule_fpga(const RuleContext& ctx, Sink& sink, const Config& config) {
  if (!fpga_scope(ctx.path)) return;
  const auto scan = scan_fpga_annotations(ctx.path, ctx.code, ctx.raw);
  for (const auto& miss : scan.missing) {
    sink.report(miss.line, "fpga-missing-annotation",
                (miss.malformed
                     ? "malformed FPGA budget annotation on NIC module '" +
                           miss.name + "'; expected"
                     : "NIC module class '" + miss.name +
                           "' has no FPGA budget annotation; add") +
                    " `// fpga: lut=<N>, bram_bits=<M>, cycles=<K>` on the "
                    "class declaration (docs/STATIC_ANALYSIS.md)");
  }
  for (const auto& f :
       check_fpga_timing(scan.annotations, config.fpga_timing)) {
    sink.report(f.line, f.rule, f.message);
  }
  // Per-TU envelope check; the driver repeats it across every linted
  // nic/ header so cross-file growth is caught too.
  for (const auto& f :
       check_fpga_budget(scan.annotations, config.fpga_budget)) {
    sink.report(f.line, f.rule, f.message);
  }
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

bool fpga_scope(std::string_view path) {
  return is_header(path) && contains(path, "nic/");
}

const std::vector<FpgaTimingExpectation>& default_timing_expectations() {
  // Mirror of Tab. 4 (NicTimings, src/nic/nic_pipeline.hpp) in 500 MHz
  // datapath-clock cycles; `albatross_lint --fpga-report` re-derives
  // this table from the compiled-in NicTimings and fails on drift.
  static const std::vector<FpgaTimingExpectation> kExpect = {
      {"BasicPipeline", 710},     // basic_rx 290 + basic_tx 420
      {"TenantRateLimiter", 50},  // overload_det_rx
      {"PlbEngine", 25},          // plb_rx (dispatch)
      {"ReorderQueue", 175},      // plb_tx (reorder)
      {"DmaChannel", 1585},       // max(dma_rx_base, dma_tx_base)
  };
  return kExpect;
}

std::vector<FpgaAnnotation> collect_fpga_annotations(std::string_view path,
                                                     std::string_view text) {
  const std::string stripped = strip_comments_and_strings(text);
  const auto code = split_lines(stripped);
  const auto raw = split_lines(text);
  return scan_fpga_annotations(path, code, raw).annotations;
}

std::vector<FpgaAnnotation> collect_fpga_annotations_file(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return collect_fpga_annotations(path, ss.str());
}

std::vector<Finding> check_fpga_budget(
    const std::vector<FpgaAnnotation>& annotations, const FpgaBudget& budget) {
  std::vector<Finding> findings;
  if (annotations.empty()) return findings;
  std::uint64_t lut_sum = 0;
  std::uint64_t bram_sum = 0;
  const FpgaAnnotation* max_lut = &annotations.front();
  const FpgaAnnotation* max_bram = &annotations.front();
  for (const auto& a : annotations) {
    lut_sum += a.lut;
    bram_sum += a.bram_bits;
    if (a.lut > max_lut->lut) max_lut = &a;
    if (a.bram_bits > max_bram->bram_bits) max_bram = &a;
  }
  if (lut_sum > budget.luts) {
    findings.push_back(Finding{
        max_lut->file, max_lut->annotation_line, "fpga-budget-overflow",
        "annotated LUT budgets sum to " + format_bits(lut_sum) +
            " across the NIC pipeline, exceeding the FpgaSpec envelope of " +
            format_bits(budget.luts) + " LUTs (largest contributor: " +
            max_lut->module + ")"});
  }
  if (bram_sum > budget.bram_bits) {
    findings.push_back(Finding{
        max_bram->file, max_bram->annotation_line, "fpga-budget-overflow",
        "annotated bram_bits sum to " + format_bits(bram_sum) +
            " across the NIC pipeline, exceeding the FpgaSpec envelope of " +
            format_bits(budget.bram_bits) +
            " BRAM bits (largest contributor: " + max_bram->module + ")"});
  }
  return findings;
}

std::vector<Finding> check_fpga_timing(
    const std::vector<FpgaAnnotation>& annotations,
    const std::vector<FpgaTimingExpectation>& expectations) {
  std::vector<Finding> findings;
  for (const auto& a : annotations) {
    for (const auto& e : expectations) {
      if (e.module != a.module) continue;
      if (a.cycles != e.cycles) {
        std::ostringstream msg;
        msg << "annotated cycles=" << a.cycles << " for module '" << a.module
            << "' disagrees with its NicTimings stage cost of " << e.cycles
            << " cycles at the 500 MHz datapath clock (Tab. 4)";
        findings.push_back(Finding{a.file, a.annotation_line,
                                   "fpga-timing-closure", msg.str()});
      }
      break;
    }
  }
  return findings;
}

std::vector<Finding> check_fpga_stale(
    const std::vector<FpgaAnnotation>& annotations,
    const std::vector<FpgaStructural>& structural, double tolerance) {
  std::vector<Finding> findings;
  for (const auto& a : annotations) {
    for (const auto& s : structural) {
      if (s.module != a.module || s.bram_bits == 0) continue;
      const double drift =
          std::abs(static_cast<double>(a.bram_bits) -
                   static_cast<double>(s.bram_bits)) /
          static_cast<double>(s.bram_bits);
      if (drift > tolerance) {
        std::ostringstream msg;
        msg.setf(std::ios::fixed);
        msg.precision(1);
        msg << "annotated bram_bits=" << a.bram_bits << " for module '"
            << a.module << "' drifts " << drift * 100.0
            << "% from the structural ledger accounting of " << s.bram_bits
            << " bits (FpgaResourceModel::ledger(), default report "
               "geometry); re-derive the annotation";
        findings.push_back(Finding{a.file, a.annotation_line,
                                   "fpga-stale-annotation", msg.str()});
      }
      break;
    }
  }
  return findings;
}

bool suppressed(const Finding& finding, std::string_view raw_line,
                const Config& config) {
  if (contains(raw_line, "lint:allow(" + finding.rule + ")")) return true;
  for (const auto& a : config.allow) {
    if ((a.rule == "*" || a.rule == finding.rule) &&
        contains(finding.file, a.path_substring)) {
      return true;
    }
  }
  return false;
}

std::string findings_to_json(const std::vector<Finding>& findings) {
  std::string out = "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const auto& f = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"file\": \"";
    append_json_escaped(out, f.file);
    out += "\", \"line\": " + std::to_string(f.line) + ", \"rule\": \"";
    append_json_escaped(out, f.rule);
    out += "\", \"message\": \"";
    append_json_escaped(out, f.message);
    out += "\"}";
  }
  out += findings.empty() ? "]" : "\n  ]";
  return out;
}

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kNames = {
      "wall-clock",         "nondeterministic-rng",
      "unordered-iteration", "naked-time-literal",
      "scalar-hot-path",    "header-hygiene",
      "fpga-missing-annotation", "fpga-budget-overflow",
      "fpga-timing-closure", "fpga-stale-annotation",
      "shared-static",
  };
  return kNames;
}

std::vector<AllowEntry> parse_allowlist(std::string_view text) {
  std::vector<AllowEntry> entries;
  for (const auto& line : split_lines(text)) {
    const auto hash = line.find('#');
    std::string body = line.substr(0, hash);
    std::istringstream is(body);
    AllowEntry e;
    if (is >> e.rule >> e.path_substring) entries.push_back(std::move(e));
  }
  return entries;
}

std::vector<Finding> lint_source(std::string_view path, std::string_view text,
                                 const Config& config) {
  const std::string stripped = strip_comments_and_strings(text);
  const auto code = split_lines(stripped);
  const auto raw = split_lines(text);
  std::vector<Finding> findings;
  Sink sink(path, raw, config, findings);
  const RuleContext ctx{path, code, raw, stripped};
  rule_wall_clock(ctx, sink);
  rule_rng(ctx, sink);
  rule_unordered_iteration(ctx, sink);
  rule_naked_time_literal(ctx, sink);
  rule_scalar_hot_path(ctx, sink);
  rule_header_hygiene(ctx, sink);
  rule_shared_static(ctx, sink);
  rule_fpga(ctx, sink, config);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
            });
  return findings;
}

std::vector<Finding> lint_file(const std::string& path, const Config& config) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {Finding{path, 0, "io-error", "cannot open file"}};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return lint_source(path, ss.str(), config);
}

}  // namespace albatross::lint
