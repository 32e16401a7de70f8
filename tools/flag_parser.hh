/**
 * @file
 * A small declarative flag parser for the chex command-line tools,
 * shared by the chex-campaign `run` and `merge` subcommands. Each
 * subcommand registers its flags (name, metavar, help, handler) and
 * gets argv parsing, `--help`, auto-generated per-subcommand usage
 * text, and positional-argument collection — replacing the
 * hand-rolled argv loop that grew a branch per flag across three
 * PRs.
 *
 * Handlers validate their value and return false to reject it; the
 * parser owns all error reporting, so every bad invocation prints
 * the same "tool subcommand: message" shape followed by a usage
 * pointer.
 *
 * Flags are single-occurrence by default: a duplicate is rejected
 * with a clear error instead of silently taking the last value
 * (where "--shard 0/2 ... --shard 1/2" pasted across shell history
 * would quietly run the wrong shard). Flags that genuinely
 * accumulate (the run subcommand's --cache) opt in via
 * Repeat::Allowed.
 */

#ifndef CHEX_TOOLS_FLAG_PARSER_HH
#define CHEX_TOOLS_FLAG_PARSER_HH

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace chex
{
namespace cli
{

/** Outcome of FlagParser::parse, mapped straight to main(). */
enum class ParseStatus
{
    Ok,       // flags consumed; proceed with the subcommand
    ExitOk,   // --help was handled; exit 0
    ExitUsage // bad invocation (already reported); exit 2
};

/** Whether a flag may appear more than once on one command line. */
enum class Repeat
{
    Once,   // duplicate occurrences are a usage error (the default)
    Allowed // each occurrence invokes the handler (e.g. --cache)
};

class FlagParser
{
  public:
    /**
     * @p prog is argv[0]; @p subcommand names the usage ("run",
     * "merge", ...); @p summary is the one-paragraph description
     * printed by --help.
     */
    FlagParser(std::string prog, std::string subcommand,
               std::string summary)
        : _prog(std::move(prog)), _subcommand(std::move(subcommand)),
          _summary(std::move(summary))
    {
    }

    /**
     * A value-taking flag: `--name METAVAR`. The handler returns
     * false to reject the value (the parser reports the error).
     * Multi-line @p help continues with aligned indentation.
     */
    void
    add(const std::string &name, const std::string &metavar,
        const std::string &help,
        std::function<bool(const std::string &)> handler,
        Repeat repeat = Repeat::Once)
    {
        _flags.push_back({name, metavar, help, std::move(handler),
                          nullptr, repeat});
    }

    /** A boolean switch: `--name` with no value. Switches are
     * idempotent, so repeating one is harmless and allowed. */
    void
    add(const std::string &name, const std::string &help,
        std::function<void()> handler)
    {
        _flags.push_back({name, "", help, nullptr,
                          std::move(handler), Repeat::Allowed});
    }

    /**
     * Accept positional (non-flag) arguments, described as
     * @p metavar in the usage. Without this, positionals are
     * rejected as unknown arguments.
     */
    void
    positionals(const std::string &metavar, const std::string &help)
    {
        _positionalMeta = metavar;
        _positionalHelp = help;
    }

    /**
     * Parse argv[@p begin..). `--help`/`-h` prints the usage and
     * returns ExitOk; anything invalid is reported on stderr and
     * returns ExitUsage. Collected positionals land in
     * positionalArgs().
     */
    ParseStatus
    parse(int argc, char **argv, int begin)
    {
        std::vector<bool> seen(_flags.size(), false);
        for (int i = begin; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--help" || arg == "-h") {
                usage(stdout);
                return ParseStatus::ExitOk;
            }
            if (arg.empty() || arg[0] != '-') {
                if (_positionalMeta.empty())
                    return unknown(arg);
                _positionalArgs.push_back(arg);
                continue;
            }
            const Flag *flag = find(arg);
            if (!flag)
                return unknown(arg);
            size_t slot = static_cast<size_t>(flag - _flags.data());
            if (flag->repeat == Repeat::Once && seen[slot]) {
                std::fprintf(stderr,
                             "%s: %s given more than once\n",
                             context().c_str(), arg.c_str());
                return ParseStatus::ExitUsage;
            }
            seen[slot] = true;
            if (flag->onSwitch) {
                flag->onSwitch();
                continue;
            }
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a value\n",
                             context().c_str(), arg.c_str());
                return ParseStatus::ExitUsage;
            }
            std::string value = argv[++i];
            if (!flag->onValue(value)) {
                std::fprintf(stderr,
                             "%s: invalid value '%s' for %s\n",
                             context().c_str(), value.c_str(),
                             arg.c_str());
                return ParseStatus::ExitUsage;
            }
        }
        return ParseStatus::Ok;
    }

    const std::vector<std::string> &
    positionalArgs() const
    {
        return _positionalArgs;
    }

    /** The auto-generated per-subcommand usage text. */
    void
    usage(FILE *out) const
    {
        std::fprintf(out, "usage: %s [options]%s%s\n",
                     context().c_str(),
                     _positionalMeta.empty() ? "" : " ",
                     _positionalMeta.c_str());
        std::fprintf(out, "\n%s\n\n", _summary.c_str());
        if (!_positionalMeta.empty()) {
            printEntry(out, _positionalMeta, _positionalHelp);
        }
        for (const Flag &f : _flags) {
            std::string head = f.name;
            if (!f.metavar.empty())
                head += " " + f.metavar;
            printEntry(out, head, f.help);
        }
    }

  private:
    struct Flag
    {
        std::string name;
        std::string metavar;
        std::string help;
        std::function<bool(const std::string &)> onValue;
        std::function<void()> onSwitch;
        Repeat repeat = Repeat::Once;
    };

    std::string
    context() const
    {
        return _prog + " " + _subcommand;
    }

    const Flag *
    find(const std::string &name) const
    {
        for (const Flag &f : _flags)
            if (f.name == name)
                return &f;
        return nullptr;
    }

    ParseStatus
    unknown(const std::string &arg) const
    {
        std::fprintf(stderr, "%s: unknown %s '%s'\n",
                     context().c_str(),
                     arg.empty() || arg[0] != '-' ? "argument"
                                                  : "option",
                     arg.c_str());
        std::fprintf(stderr, "run '%s --help' for usage\n",
                     context().c_str());
        return ParseStatus::ExitUsage;
    }

    /** "  --flag VALUE     first help line" + indented follow-ons. */
    static void
    printEntry(FILE *out, const std::string &head,
               const std::string &help)
    {
        const int column = 19;
        std::fprintf(out, "  %-*s", column - 2, head.c_str());
        if (static_cast<int>(head.size()) > column - 3)
            std::fprintf(out, "\n%*s", column, "");
        size_t start = 0;
        bool first = true;
        while (start <= help.size()) {
            size_t nl = help.find('\n', start);
            std::string line =
                help.substr(start, nl == std::string::npos
                                       ? std::string::npos
                                       : nl - start);
            if (first) {
                std::fprintf(out, "%s\n", line.c_str());
                first = false;
            } else {
                std::fprintf(out, "%*s%s\n", column, "",
                             line.c_str());
            }
            if (nl == std::string::npos)
                break;
            start = nl + 1;
        }
    }

    std::string _prog;
    std::string _subcommand;
    std::string _summary;
    std::string _positionalMeta;
    std::string _positionalHelp;
    std::vector<Flag> _flags;
    std::vector<std::string> _positionalArgs;
};

} // namespace cli
} // namespace chex

#endif // CHEX_TOOLS_FLAG_PARSER_HH
