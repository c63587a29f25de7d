// Small string helpers used by the parsers and report printers.

#ifndef SGQ_COMMON_STRING_UTIL_H_
#define SGQ_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sgq {

/// \brief Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> SplitString(std::string_view text, char sep);

/// \brief Removes leading and trailing ASCII whitespace.
std::string_view TrimString(std::string_view text);

/// \brief True if `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// \brief Appends each of `parts` (strings, string views or C strings) to
/// `*out` in order: one growing string, no temporary per piece.
template <typename... Parts>
void StrAppend(std::string* out, const Parts&... parts) {
  (out->append(std::string_view(parts)), ...);
}

/// \brief Joins `parts` with `sep`.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// \brief Strict signed-integer parse: the whole of `text` must be a
/// base-10 integer (optional leading '-'/'+'), no trailing garbage, no
/// empty input. Returns false on any violation or overflow.
bool ParseInt64(std::string_view text, int64_t* out);

}  // namespace sgq

#endif  // SGQ_COMMON_STRING_UTIL_H_
