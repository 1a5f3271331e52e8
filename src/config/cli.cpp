#include "config/cli.hpp"

#include <utility>

#include "common/json.hpp"

namespace gex::cli {

std::string
versionText(const std::string &prog)
{
#if defined(__clang__)
    const char *compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const char *compiler = "g++ " __VERSION__;
#else
    const char *compiler = "unknown compiler";
#endif
#ifdef GEXSIM_BUILD_TYPE
    const char *buildType =
        GEXSIM_BUILD_TYPE[0] ? GEXSIM_BUILD_TYPE : "default";
#else
    const char *buildType = "unknown";
#endif
    const config::KnobRegistry &reg = config::KnobRegistry::instance();
    return strprintf(
        "%s (gexsim GPU exception-handling simulator)\n"
        "  compiler:       %s\n"
        "  build type:     %s\n"
        "  knob registry:  %zu knobs, registry digest %016llx\n",
        prog.c_str(), compiler, buildType, reg.knobs().size(),
        static_cast<unsigned long long>(reg.registryDigest()));
}

ArgParser::ArgParser(std::string prog, std::string description)
    : prog_(std::move(prog)), description_(std::move(description))
{}

void
ArgParser::synopsis(std::string text)
{
    synopsis_ = std::move(text);
}

void
ArgParser::option(std::string flag, std::string valueName,
                  std::string doc,
                  std::function<void(const std::string &)> setter,
                  const char *specKey)
{
    Option o;
    o.flag = std::move(flag);
    o.valueName = std::move(valueName);
    o.doc = std::move(doc);
    o.setter = std::move(setter);
    if (specKey)
        o.specKey = specKey;
    options_.push_back(std::move(o));
}

void
ArgParser::specKey(std::string key, std::string doc,
                   std::function<void(const json::Value &)> setter)
{
    Option o;
    o.doc = std::move(doc);
    o.jsonSetter = std::move(setter);
    o.specKey = std::move(key);
    options_.push_back(std::move(o));
}

void
ArgParser::flag(std::string flag, std::string doc,
                std::function<void()> setter)
{
    Option o;
    o.flag = std::move(flag);
    o.doc = std::move(doc);
    o.action = std::move(setter);
    options_.push_back(std::move(o));
}

void
ArgParser::bindKnobs(config::RunParams *params)
{
    params_ = params;
}

const ArgParser::Option *
ArgParser::findOption(const std::string &flag) const
{
    for (const Option &o : options_)
        if (!o.flag.empty() && o.flag == flag)
            return &o;
    return nullptr;
}

void
ArgParser::unknownFlag(const std::string &flag) const
{
    std::vector<std::string> known = {"--help", "--version"};
    for (const Option &o : options_)
        if (!o.flag.empty())
            known.push_back(o.flag);
    if (params_) {
        known.push_back("--config");
        known.push_back("--dump-knobs");
        for (const config::Knob &k :
             config::KnobRegistry::instance().knobs()) {
            known.push_back(k.flag);
            if (k.type == config::KnobType::Bool)
                known.push_back("--no-" + k.flag.substr(2));
        }
    }
    std::string best;
    std::size_t bestDist = flag.size() / 2 + 2;
    for (const std::string &cand : known) {
        std::size_t d = config::editDistance(flag, cand);
        if (d < bestDist) {
            bestDist = d;
            best = cand;
        }
    }
    throw ConfigError(strprintf(
        "unknown flag '%s'%s (--help lists every flag)", flag.c_str(),
        best.empty()
            ? ""
            : strprintf(" (did you mean '%s'?)", best.c_str()).c_str()));
}

void
ArgParser::applySpec(const std::string &path)
{
    // Driver options registered with a spec key are legal spec keys
    // too; their values arrive as the same text the CLI flag takes
    // (arrays comma-joined, matching the CSV list flags).
    auto extraKey = [&](const std::string &key,
                        const json::Value &v) -> bool {
        for (const Option &o : options_) {
            if (o.specKey != key)
                continue;
            if (o.jsonSetter) {
                o.jsonSetter(v);
                return true;
            }
            std::string ctx = strprintf("%s: key '%s'", path.c_str(),
                                        key.c_str());
            auto scalarText =
                [&ctx](const json::Value &s) -> std::string {
                switch (s.kind) {
                case json::Value::Kind::String: return s.str;
                case json::Value::Kind::Number:
                    return json::formatNumber(s.number);
                case json::Value::Kind::Bool:
                    return s.boolean ? "true" : "false";
                default:
                    throw ConfigError(
                        ctx + " needs a string, number or bool");
                }
            };
            std::string text;
            if (v.isArray()) {
                for (const json::Value &item : v.items) {
                    if (!text.empty())
                        text += ",";
                    text += scalarText(item);
                }
            } else {
                text = scalarText(v);
            }
            o.setter(text);
            return true;
        }
        return false;
    };
    auto extraSuggest = [&](const std::string &key) -> std::string {
        std::string best;
        std::size_t bestDist = key.size() / 2 + 2;
        for (const Option &o : options_) {
            if (o.specKey.empty())
                continue;
            std::size_t d = config::editDistance(key, o.specKey);
            if (d < bestDist) {
                bestDist = d;
                best = o.specKey;
            }
        }
        return best;
    };
    config::KnobRegistry::instance().applySpecFile(*params_, path,
                                                  extraKey, extraSuggest);
    configFiles_.push_back(path);
}

void
ArgParser::printHelp() const
{
    std::printf("%s: %s\n\n", prog_.c_str(), description_.c_str());
    if (!synopsis_.empty())
        std::printf("usage: %s\n\n", synopsis_.c_str());
    std::printf("driver options:\n");
    auto line = [](const std::string &left, const std::string &doc) {
        if (left.size() < 30)
            std::printf("  %s%s%s\n", left.c_str(),
                        std::string(30 - left.size(), ' ').c_str(),
                        doc.c_str());
        else
            std::printf("  %s\n  %s%s\n", left.c_str(),
                        std::string(30, ' ').c_str(), doc.c_str());
    };
    for (const Option &o : options_) {
        if (o.jsonSetter) {
            line("spec key " + o.specKey, o.doc);
            continue;
        }
        std::string left = o.flag;
        if (!o.valueName.empty())
            left += " " + o.valueName;
        std::string doc = o.doc;
        if (!o.specKey.empty())
            doc += strprintf(" [spec key: %s]", o.specKey.c_str());
        line(left, doc);
    }
    if (params_) {
        line("--config FILE",
             "apply a JSON experiment spec (repeatable; flags "
             "override spec values)");
        line("--dump-knobs",
             "print the knob reference table (markdown) and exit");
    }
    line("--version", "print build and knob-registry provenance");
    line("--help", "this text");
    if (params_) {
        std::printf("\n%s",
                    config::KnobRegistry::instance().helpText().c_str());
        std::printf(
            "\nspec files are JSON objects of knob names%s; unknown "
            "keys are\nrejected with a suggestion (exit code 2). "
            "docs/CONFIGURATION.md has the\nfull reference.\n",
            options_.empty() ? "" : " and the marked spec keys");
    }
}

void
ArgParser::parse(int argc, char **argv)
{
    configFiles_.clear();

    // Informational modes win over everything else on the line.
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            printHelp();
            std::exit(ExitOk);
        }
        if (a == "--version") {
            std::printf("%s", versionText(prog_).c_str());
            std::exit(ExitOk);
        }
        if (params_ && a == "--dump-knobs") {
            std::printf(
                "%s",
                config::KnobRegistry::instance().markdownTable().c_str());
            std::exit(ExitOk);
        }
    }

    auto valueOf = [&](int &i, const std::string &flag) -> std::string {
        if (i + 1 >= argc)
            throw ConfigError(
                strprintf("flag %s needs a value", flag.c_str()));
        return argv[++i];
    };

    // Pass 1: spec files apply first, in order, so that any flag —
    // before or after its --config on the line — overrides the spec.
    if (params_) {
        for (int i = 1; i < argc; ++i) {
            if (std::string(argv[i]) == "--config")
                applySpec(valueOf(i, "--config"));
        }
    }

    // Pass 2: everything else, in CLI order.
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (params_ && a == "--config") {
            ++i; // already applied
            continue;
        }
        if (!a.empty() && a[0] != '-')
            throw ConfigError(
                strprintf("unexpected argument '%s'", a.c_str()));
        if (const Option *o = findOption(a)) {
            if (o->setter)
                o->setter(valueOf(i, a));
            else
                o->action();
            continue;
        }
        if (params_) {
            const config::KnobRegistry &reg =
                config::KnobRegistry::instance();
            if (const config::Knob *k = reg.findFlag(a)) {
                if (k->type == config::KnobType::Bool)
                    k->set(*params_, config::KnobValue::ofBool(true));
                else
                    k->set(*params_, k->parseText(a, valueOf(i, a)));
                continue;
            }
            if (a.rfind("--no-", 0) == 0) {
                const config::Knob *k =
                    reg.findFlag("--" + a.substr(5));
                if (k && k->type == config::KnobType::Bool) {
                    k->set(*params_, config::KnobValue::ofBool(false));
                    continue;
                }
            }
        }
        unknownFlag(a);
    }
}

} // namespace gex::cli
