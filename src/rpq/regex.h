#ifndef PQE_RPQ_REGEX_H_
#define PQE_RPQ_REGEX_H_

#include <memory>
#include <string>
#include <vector>

#include "util/result.h"

namespace pqe {
namespace rpq {

/// Node kinds of a regular path query expression. Inverse navigation (the
/// 2RPQ `^label` of SPARQL property paths, written label⁻ in the literature)
/// is normalized away at parse time: `^` over a composite expression is
/// pushed down to the labels (reversing concatenations), so a parsed tree
/// carries inversion only on kLabel nodes.
enum class RegexKind {
  kLabel,   // an edge label, forward (`a`) or inverse (`^a`)
  kConcat,  // e1 / e2 / ... (2+ children)
  kAlt,     // e1 | e2 | ... (2+ children)
  kStar,    // e*  (1 child)
  kPlus,    // e+  (1 child)
  kOpt,     // e?  (1 child)
};

/// One node of the parsed expression tree. Immutable after parsing; shared
/// ownership keeps RpqQuery cheaply copyable.
struct RegexNode {
  RegexKind kind = RegexKind::kLabel;
  std::string label;     // kLabel only
  bool inverse = false;  // kLabel only: traverse the edge target -> source
  std::vector<std::shared_ptr<const RegexNode>> children;
};

using RegexPtr = std::shared_ptr<const RegexNode>;

/// A regular path query over binary edge relations, in SPARQL property-path
/// style syntax:
///
///   path     := alt
///   alt      := concat ('|' concat)*
///   concat   := postfix ('/' postfix)*
///   postfix  := primary ('*' | '+' | '?')*
///   primary  := '^' primary | '(' alt ')' | label
///   label    := [A-Za-z_][A-Za-z0-9_]*
///
/// Whitespace is insignificant. `^e` is inverse traversal (2RPQ); it
/// distributes over composite operands at parse time. Stacked postfix
/// operators fold at parse time by their language identities (`a**` is
/// `a*`, `a+?` is `a*`), and '(' / '^' may nest at most 256 deep. The query is Boolean:
/// it asks for the existence of vertices x, y and a path x ->* y whose label
/// word (with orientation) matches the expression.
class RpqQuery {
 public:
  /// Parses `text`; syntax errors come back as InvalidArgument naming the
  /// 1-based column of the offending character.
  static Result<RpqQuery> Parse(const std::string& text);

  const RegexNode& root() const { return *root_; }
  const RegexPtr& root_ptr() const { return root_; }

  /// The text as given to Parse (diagnostics; not canonical).
  const std::string& text() const { return text_; }

  /// Canonical rendering with minimal parentheses. Stable under re-parsing:
  /// Parse(Canonical()) renders back to the same string — the round-trip
  /// property the parser tests pin down, and the content-key input of the
  /// serving layer.
  std::string Canonical() const;

  /// Distinct edge labels, in first-occurrence order.
  std::vector<std::string> Labels() const;

  /// True iff the expression is a plain concatenation of forward labels with
  /// no repetition operators, alternation, or inverses — the degenerate case
  /// that is exactly a linear path query. Fills `labels` (in order) when
  /// non-null. Repeated labels still return true here (the caller decides
  /// whether a self-join-free lowering applies).
  bool IsLinearChain(std::vector<std::string>* labels = nullptr) const;

 private:
  RpqQuery(std::string text, RegexPtr root)
      : text_(std::move(text)), root_(std::move(root)) {}

  std::string text_;
  RegexPtr root_;
};

}  // namespace rpq
}  // namespace pqe

#endif  // PQE_RPQ_REGEX_H_
