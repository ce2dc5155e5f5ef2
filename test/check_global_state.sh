#!/bin/sh
# Guard against process-global state in lib/.
#
# Lists every module-level mutable binding in the OCaml sources under
# ROOT/lib (ROOT defaults to the repository root): a parameterless [let]
# at top level or directly inside a [module ... = struct], whose right-hand
# side -- on the same line or, for [let x =] with nothing after the [=], on
# the next non-blank line -- starts with [ref], a [create] / [create_builder]
# call ([Hashtbl.create], [Enc.create], [Fingerprint.create_builder], ...).
# Bindings local to a function (ending in [in]) are not module-level.
#
# Prints one "path:line: Module.name" per binding, marking any binding
# missing from the allowlist below, and exits 1 if there is one. Every
# allowlisted value carries a comment at its definition saying why it
# stays; a new one needs an owner (a record the simulation holds), not a
# new allowlist entry.
#
# Usage: test/check_global_state.sh [ROOT]
set -eu

root=${1:-$(dirname "$0")/..}

allow='
Tally.mac_gen_ops
Tally.mac_gen_bytes
Tally.mac_verify_ops
Tally.mac_verify_bytes
Tally.digest_ops
Tally.digest_bytes
Mac.last_key
Mac.last_session
Fingerprint.parts_builder
Message.digest_enc
Message.digest_builder
Message.batch_builder
'

found=$(cd "$root" && find lib -name '*.ml' | sort | xargs awk '
  FNR == 1 {
    depth = 0
    pending = ""
    m = FILENAME
    sub(/.*\//, "", m)
    sub(/\.ml$/, "", m)
    path[0] = toupper(substr(m, 1, 1)) substr(m, 2)
  }
  function mutable_rhs(rhs) {
    sub(/^ +/, "", rhs)
    if (rhs ~ / in *$/) return 0
    return rhs ~ /^ref[ (]/ ||
      rhs ~ /^([A-Z][A-Za-z0-9_]*\.)*create(_builder)?( |\(|$)/
  }
  {
    line = $0
    match(line, /^ */)
    indent = RLENGTH
    if (pending != "" && line !~ /^ *$/) {
      if (mutable_rhs(line)) print pending
      pending = ""
    }
    if (depth > 0 && indent == opened[depth] && line ~ /^ *end( |$)/) {
      depth--
      next
    }
    if (line ~ /^ *module [A-Z][A-Za-z0-9_]* = struct *$/) {
      depth++
      opened[depth] = indent
      inner = line
      sub(/^ *module /, "", inner)
      sub(/ .*/, "", inner)
      path[depth] = path[depth - 1] "." inner
      next
    }
    member = depth == 0 ? 0 : opened[depth] + 2
    if (indent != member) next
    if (!match(line, /^ *let [a-z_][A-Za-z0-9_]*( *:[^=]*)? *=/)) next
    name = substr(line, indent + 5)
    sub(/[ :=].*/, "", name)
    rhs = substr(line, RLENGTH + 1)
    where = FILENAME ":" FNR ": " path[depth] "." name
    if (rhs ~ /^ *$/) pending = where
    else if (mutable_rhs(rhs)) print where
  }
')

bad=0
while IFS= read -r entry; do
  [ -n "$entry" ] || continue
  if printf '%s\n' "$allow" | grep -qx "${entry##* }"; then
    echo "$entry"
  else
    echo "$entry  <- not allowlisted: give this state an owner"
    bad=1
  fi
done <<EOF
$found
EOF
exit $bad
