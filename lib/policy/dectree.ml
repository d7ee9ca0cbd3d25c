(* Alias of {!Matcher} for bench/perf; the [benchmark] change deletes it. *)
include Matcher
