#include "rpq/regex.h"

#include <cctype>
#include <utility>

namespace pqe {
namespace rpq {

namespace {

RegexPtr MakeLabel(std::string name, bool inverse) {
  auto n = std::make_shared<RegexNode>();
  n->kind = RegexKind::kLabel;
  n->label = std::move(name);
  n->inverse = inverse;
  return n;
}

RegexPtr MakeNary(RegexKind kind, std::vector<RegexPtr> children) {
  if (children.size() == 1) return std::move(children[0]);
  auto n = std::make_shared<RegexNode>();
  n->kind = kind;
  n->children = std::move(children);
  return n;
}

/// Builds `child` followed by a postfix operator, folding stacked operators
/// by their language identities: r** = r*, r++ = r+, r?? = r?, and every
/// mixed pair (r*+, r+*, r*?, r?*, r+?, r?+) is r*. A built tree therefore
/// never nests one postfix node directly under another, which keeps runs of
/// operators like `a****` from growing the tree and the compiled automaton.
RegexPtr MakeUnary(RegexKind kind, RegexPtr child) {
  const RegexKind inner = child->kind;
  if (inner == RegexKind::kStar || inner == RegexKind::kPlus ||
      inner == RegexKind::kOpt) {
    if (inner == kind) return child;
    return MakeUnary(RegexKind::kStar, child->children[0]);
  }
  auto n = std::make_shared<RegexNode>();
  n->kind = kind;
  n->children.push_back(std::move(child));
  return n;
}

/// The inverse of an expression, pushed down to the labels: reverse(e1/e2) =
/// reverse(e2)/reverse(e1), reverse distributes over | * + ?, and a label
/// flips its orientation.
RegexPtr Invert(const RegexPtr& node) {
  switch (node->kind) {
    case RegexKind::kLabel:
      return MakeLabel(node->label, !node->inverse);
    case RegexKind::kConcat: {
      std::vector<RegexPtr> rev;
      rev.reserve(node->children.size());
      for (auto it = node->children.rbegin(); it != node->children.rend();
           ++it) {
        rev.push_back(Invert(*it));
      }
      return MakeNary(RegexKind::kConcat, std::move(rev));
    }
    case RegexKind::kAlt: {
      std::vector<RegexPtr> inv;
      inv.reserve(node->children.size());
      for (const RegexPtr& c : node->children) inv.push_back(Invert(c));
      return MakeNary(RegexKind::kAlt, std::move(inv));
    }
    case RegexKind::kStar:
    case RegexKind::kPlus:
    case RegexKind::kOpt:
      return MakeUnary(node->kind, Invert(node->children[0]));
  }
  return node;  // unreachable
}

// Recursive-descent parser. Nesting ('(' and '^') is capped so a hostile
// expression cannot overflow the stack here or in the recursive passes over
// the parsed tree (inversion, rendering, Thompson compilation).
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<RegexPtr> Run() {
    SkipSpace();
    if (AtEnd()) {
      return Error("empty regular path query");
    }
    PQE_ASSIGN_OR_RETURN(RegexPtr root, ParseAlt());
    SkipSpace();
    if (!AtEnd()) {
      return Error(std::string("unexpected '") + text_[pos_] + "'");
    }
    return root;
  }

 private:
  static constexpr int kMaxDepth = 256;

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  void SkipSpace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
  }
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("rpq regex: " + what + " at column " +
                                   std::to_string(pos_ + 1));
  }

  Result<RegexPtr> ParseAlt() {
    std::vector<RegexPtr> arms;
    PQE_ASSIGN_OR_RETURN(RegexPtr first, ParseConcat());
    arms.push_back(std::move(first));
    SkipSpace();
    while (!AtEnd() && Peek() == '|') {
      ++pos_;
      PQE_ASSIGN_OR_RETURN(RegexPtr arm, ParseConcat());
      arms.push_back(std::move(arm));
      SkipSpace();
    }
    return MakeNary(RegexKind::kAlt, std::move(arms));
  }

  Result<RegexPtr> ParseConcat() {
    std::vector<RegexPtr> parts;
    PQE_ASSIGN_OR_RETURN(RegexPtr first, ParsePostfix());
    parts.push_back(std::move(first));
    SkipSpace();
    while (!AtEnd() && Peek() == '/') {
      ++pos_;
      PQE_ASSIGN_OR_RETURN(RegexPtr part, ParsePostfix());
      parts.push_back(std::move(part));
      SkipSpace();
    }
    return MakeNary(RegexKind::kConcat, std::move(parts));
  }

  Result<RegexPtr> ParsePostfix() {
    PQE_ASSIGN_OR_RETURN(RegexPtr node, ParsePrimary());
    SkipSpace();
    while (!AtEnd()) {
      const char c = Peek();
      if (c == '*') {
        node = MakeUnary(RegexKind::kStar, std::move(node));
      } else if (c == '+') {
        node = MakeUnary(RegexKind::kPlus, std::move(node));
      } else if (c == '?') {
        node = MakeUnary(RegexKind::kOpt, std::move(node));
      } else {
        break;
      }
      ++pos_;
      SkipSpace();
    }
    return node;
  }

  Result<RegexPtr> ParsePrimary() {
    SkipSpace();
    if (AtEnd()) {
      return Error("expected label, '(' or '^'");
    }
    const char c = Peek();
    if ((c == '^' || c == '(') && depth_ >= kMaxDepth) {
      return Error("nesting deeper than " + std::to_string(kMaxDepth));
    }
    // depth_ is not unwound on error returns: an error ends the parse.
    if (c == '^') {
      ++pos_;
      ++depth_;
      PQE_ASSIGN_OR_RETURN(RegexPtr inner, ParsePrimary());
      --depth_;
      return Invert(inner);
    }
    if (c == '(') {
      ++pos_;
      ++depth_;
      PQE_ASSIGN_OR_RETURN(RegexPtr inner, ParseAlt());
      --depth_;
      SkipSpace();
      if (AtEnd() || Peek() != ')') {
        return Error("expected ')'");
      }
      ++pos_;
      return inner;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      const size_t start = pos_;
      while (!AtEnd() &&
             (std::isalnum(static_cast<unsigned char>(Peek())) ||
              Peek() == '_')) {
        ++pos_;
      }
      return MakeLabel(text_.substr(start, pos_ - start), false);
    }
    return Error(std::string("expected label, '(' or '^', got '") + c + "'");
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;  // open '(' and '^' around the current position
};

// Precedence tiers for minimal-parenthesis rendering.
int Precedence(const RegexNode& node) {
  switch (node.kind) {
    case RegexKind::kAlt:
      return 1;
    case RegexKind::kConcat:
      return 2;
    case RegexKind::kStar:
    case RegexKind::kPlus:
    case RegexKind::kOpt:
      return 3;
    case RegexKind::kLabel:
      return 4;
  }
  return 4;
}

void Render(const RegexNode& node, int parent_prec, std::string* out) {
  const int prec = Precedence(node);
  const bool parens = prec < parent_prec;
  if (parens) out->push_back('(');
  switch (node.kind) {
    case RegexKind::kLabel:
      if (node.inverse) out->push_back('^');
      out->append(node.label);
      break;
    case RegexKind::kConcat:
      for (size_t i = 0; i < node.children.size(); ++i) {
        if (i > 0) out->push_back('/');
        Render(*node.children[i], prec + 1, out);
      }
      break;
    case RegexKind::kAlt:
      for (size_t i = 0; i < node.children.size(); ++i) {
        if (i > 0) out->push_back('|');
        Render(*node.children[i], prec + 1, out);
      }
      break;
    case RegexKind::kStar:
    case RegexKind::kPlus:
    case RegexKind::kOpt:
      // The operand is a label or parenthesized: parsing folds stacked
      // postfix operators, so it is never itself a postfix node.
      Render(*node.children[0], prec, out);
      out->push_back(node.kind == RegexKind::kStar   ? '*'
                     : node.kind == RegexKind::kPlus ? '+'
                                                     : '?');
      break;
  }
  if (parens) out->push_back(')');
}

void CollectLabels(const RegexNode& node, std::vector<std::string>* out) {
  if (node.kind == RegexKind::kLabel) {
    for (const std::string& seen : *out) {
      if (seen == node.label) return;
    }
    out->push_back(node.label);
    return;
  }
  for (const RegexPtr& c : node.children) CollectLabels(*c, out);
}

}  // namespace

Result<RpqQuery> RpqQuery::Parse(const std::string& text) {
  Parser parser(text);
  PQE_ASSIGN_OR_RETURN(RegexPtr root, parser.Run());
  return RpqQuery(text, std::move(root));
}

std::string RpqQuery::Canonical() const {
  std::string out;
  Render(*root_, 0, &out);
  return out;
}

std::vector<std::string> RpqQuery::Labels() const {
  std::vector<std::string> out;
  CollectLabels(*root_, &out);
  return out;
}

bool RpqQuery::IsLinearChain(std::vector<std::string>* labels) const {
  if (labels != nullptr) labels->clear();
  auto take = [labels](const RegexNode& leaf) {
    if (leaf.kind != RegexKind::kLabel || leaf.inverse) return false;
    if (labels != nullptr) labels->push_back(leaf.label);
    return true;
  };
  if (root_->kind == RegexKind::kLabel) return take(*root_);
  if (root_->kind != RegexKind::kConcat) return false;
  for (const RegexPtr& c : root_->children) {
    if (!take(*c)) {
      if (labels != nullptr) labels->clear();
      return false;
    }
  }
  return true;
}

}  // namespace rpq
}  // namespace pqe
