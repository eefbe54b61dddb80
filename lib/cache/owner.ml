type t = Attacker | Victim | System

let to_string = function
  | Attacker -> "attacker"
  | Victim -> "victim"
  | System -> "system"

let equal a b =
  match (a, b) with
  | Attacker, Attacker | Victim, Victim | System, System -> true
  | (Attacker | Victim | System), _ -> false
