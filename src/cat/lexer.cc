#include "cat/lexer.hh"

#include <cctype>
#include <string_view>
#include <utility>

#include "base/logging.hh"

namespace rex::cat {

namespace {

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
        c == '.' || c == '-';
}

TokKind
keywordKind(std::string_view word)
{
    static constexpr std::pair<std::string_view, TokKind> kKeywords[] = {
        {"let", TokKind::KwLet},
        {"include", TokKind::KwInclude},
        {"acyclic", TokKind::KwAcyclic},
        {"irreflexive", TokKind::KwIrreflexive},
        {"empty", TokKind::KwEmpty},
        {"as", TokKind::KwAs},
        {"if", TokKind::KwIf},
        {"then", TokKind::KwThen},
        {"else", TokKind::KwElse},
        {"and", TokKind::KwAnd},
        {"rec", TokKind::KwRec},
        {"show", TokKind::KwShow},
        {"unshow", TokKind::KwUnshow},
        {"flag", TokKind::KwFlag},
    };
    for (const auto &[keyword, kind] : kKeywords) {
        if (word == keyword)
            return kind;
    }
    return TokKind::Ident;
}

} // namespace

std::vector<Tok>
tokenize(const std::string &source)
{
    std::vector<Tok> tokens;
    tokens.reserve(source.size() / 4);
    int line = 1;
    std::size_t i = 0;
    const std::size_t n = source.size();

    auto push = [&](TokKind kind, std::string text = "") {
        tokens.push_back({kind, std::move(text), line});
    };

    while (i < n) {
        char c = source[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        // (* nested comments *)
        if (c == '(' && i + 1 < n && source[i + 1] == '*') {
            int depth = 1;
            i += 2;
            while (i < n && depth > 0) {
                if (source[i] == '\n')
                    ++line;
                if (source[i] == '(' && i + 1 < n && source[i + 1] == '*') {
                    ++depth;
                    i += 2;
                } else if (source[i] == '*' && i + 1 < n &&
                           source[i + 1] == ')') {
                    --depth;
                    i += 2;
                } else {
                    ++i;
                }
            }
            if (depth > 0)
                fatal("unterminated cat comment");
            continue;
        }
        // // line comments
        if (c == '/' && i + 1 < n && source[i + 1] == '/') {
            while (i < n && source[i] != '\n')
                ++i;
            continue;
        }
        if (c == '"') {
            std::size_t start = ++i;
            while (i < n && source[i] != '"')
                ++i;
            if (i >= n)
                fatal("unterminated string in cat source");
            push(TokKind::String, source.substr(start, i - start));
            ++i;
            continue;
        }
        if (c == '0' && (i + 1 >= n || !isIdentChar(source[i + 1]))) {
            push(TokKind::Zero);
            ++i;
            continue;
        }
        if (isIdentStart(c)) {
            std::size_t start = i;
            while (i < n && isIdentChar(source[i]))
                ++i;
            std::string word = source.substr(start, i - start);
            // Identifiers may contain '-', but a trailing '-' belongs to
            // the next token (e.g. in "a -b" there is no such case in
            // practice; cat names like po-loc keep theirs).
            const TokKind kind = keywordKind(word);
            push(kind, std::move(word));
            continue;
        }
        switch (c) {
          case '|': push(TokKind::Pipe); ++i; continue;
          case '&': push(TokKind::Amp); ++i; continue;
          case ';': push(TokKind::Semi); ++i; continue;
          case '\\': push(TokKind::Backslash); ++i; continue;
          case '+': push(TokKind::Plus); ++i; continue;
          case '*': push(TokKind::Star); ++i; continue;
          case '?': push(TokKind::Question); ++i; continue;
          case '~': push(TokKind::Tilde); ++i; continue;
          case '=': push(TokKind::Equals); ++i; continue;
          case '(': push(TokKind::LParen); ++i; continue;
          case ')': push(TokKind::RParen); ++i; continue;
          case '[': push(TokKind::LBracket); ++i; continue;
          case ']': push(TokKind::RBracket); ++i; continue;
          case ',': push(TokKind::Comma); ++i; continue;
          case '^':
            if (i + 2 < n && source[i + 1] == '-' && source[i + 2] == '1') {
                push(TokKind::Inverse);
                i += 3;
                continue;
            }
            fatal("bad '^' operator in cat source (expected ^-1)");
          default:
            fatal(std::string("unexpected character '") + c +
                  "' in cat source at line " + std::to_string(line));
        }
    }
    push(TokKind::End);
    return tokens;
}

} // namespace rex::cat
