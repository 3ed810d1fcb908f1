/**
 * @file
 * Small string utilities shared by the assembler, litmus parser, and cat
 * interpreter front-ends.
 */

#ifndef REX_BASE_STRINGS_HH
#define REX_BASE_STRINGS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rex {

/** Strip leading and trailing ASCII whitespace. */
std::string trim(std::string_view text);

/** Split @p text on @p sep, keeping empty fields. */
std::vector<std::string> split(std::string_view text, char sep);

/** Split @p text into non-empty whitespace-separated tokens. */
std::vector<std::string> splitWhitespace(std::string_view text);

/** Uppercase an ASCII string. */
std::string toUpper(std::string_view text);

/** Lowercase an ASCII string. */
std::string toLower(std::string_view text);

/** True when @p text begins with @p prefix. */
bool startsWith(std::string_view text, std::string_view prefix);

/** True when @p text ends with @p suffix. */
bool endsWith(std::string_view text, std::string_view suffix);

/**
 * Parse an integer literal in litmus/assembly syntax: decimal, 0x hex,
 * or 0b binary, with optional leading '-'.
 * @return true on success, storing the value in @p out.
 */
bool parseInteger(std::string_view text, std::int64_t &out);

/**
 * Parse canonical unsigned decimal: digits only, no sign, no leading
 * zero (except "0" itself), at most UINT64_MAX. These are exactly the
 * texts "%" PRIu64 prints, so a parsed value prints back to @p text.
 */
bool parseCanonicalU64(std::string_view text, std::uint64_t &out);

/**
 * Read a "NAME VALUE" line named @p name from @p text at @p pos: the
 * VALUE (possibly empty) with @p pos advanced past the line's '\n', or
 * std::nullopt with @p pos unchanged when the next line is not a
 * complete line of that name. The line-oriented frames (verdict cache
 * entries, worker frames) are read with this.
 */
std::optional<std::string_view> takeFieldLine(std::string_view text,
                                              std::size_t &pos,
                                              std::string_view name);

/** printf-style formatting into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace rex

#endif // REX_BASE_STRINGS_HH
